"""A fixed job whose run time tracks the speed of the host, not of wikitalk.

    python3 perfbench/reference.py

It starts an interpreter, imports numpy and requests, tokenizes a growing
talk page with a regex and diffs each version against the last with
``difflib``: start-up and text work of the kinds ``wikitalk reconstruct``
does. Nothing here imports wikitalk, so a change to the program leaves its
time alone, while a slower host slows both alike.
"""

import difflib
import random
import re

import numpy  # noqa: F401  (import cost only)
import requests  # noqa: F401

TOKEN_RE = re.compile(r"\n|=+|:+|\*+|\[+|\]+|\{+|\}+|[^\s=:*\[\]{}]+")
WORDS = ("sourcing", "neutrality", "notability", "infobox", "lead", "citation", "merger", "naming", "scope")


def main() -> None:
    rng = random.Random(20181031)
    lines = ["== Topic ==", "Opening comment. [[User:U0|U0]] 12:00, 1 January 2018 (UTC)"]
    previous: list[str] = []
    changed = 0
    for i in range(40):
        at = rng.randrange(1, len(lines) + 1)
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(8, 30)))
        lines.insert(at, ":" * rng.randrange(1, 5) + f"{words} [[User:U{i}|U{i}]] 12:{i % 60:02d}, 1 January 2018 (UTC)")
        tokens = TOKEN_RE.findall("\n".join(lines))
        matcher = difflib.SequenceMatcher(None, previous, tokens, autojunk=False)
        changed += sum(j2 - j1 for tag, _, _, j1, j2 in matcher.get_opcodes() if tag != "equal")
        previous = tokens
    if changed != len(previous):
        raise SystemExit(f"reference diff lost tokens: {changed} != {len(previous)}")


if __name__ == "__main__":
    main()
