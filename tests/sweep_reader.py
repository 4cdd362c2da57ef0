"""Read seeded fact files through the one-pass reader and the fact loop.

Usage: PYTHONPATH=src python3 tests/sweep_reader.py

Half of the 50,000 documents are plain: arg and att facts only, with
declared and undeclared names, self-attacks, repeated facts and whitespace
of every kind (CRLF, tabs, no-break and ideographic spaces, vertical tabs,
blank lines) between tokens. These take the one-pass path
(``document._read_facts``). The other half are near misses: a plain
document with a comment, a two-item arg fact, a quote, a stray `.` or an
upper-case fact name put in, an `r(u,v)` endpoint added, its final `.`
dropped, or the document made empty. These must fall back to the fact loop
(``document._read_fact_loop``). Each document must read to the same facts
and the same document, or raise the same error at the same line and
column, through both. Too slow for the test suite, the sweep runs as a
step of its own; it prints the document count, how many took the one-pass
path, and the time taken, and exits 1 naming each document on which the
two paths differ.
"""

import sys
import time
from random import Random
from unittest.mock import patch

from g3arg import document
from g3arg.document import parse_document
from g3arg.syntax import ParseError

DOCUMENTS = 50_000
SEED = 27

NAMES = ["a", "b", "c", "x_1", "B2", "9"]
BLANKS = ["", "", "", " ", "  ", "\t", "\n", "\r\n", "\n\n", "\u00a0", "\u3000",
          "\x0b", "\x0c", " \r\n\t "]
# each near miss puts one thing into a plain document that the one-pass
# path does not read
INSERTS = [" # note\n", "#", "arg(a,b).", "arg(a, b).", '"', 'wff(w, "R(a,a)").', ".",
           "ARG(a).", "Att(a,b).", "att(a, r(a,b)).", "att(r(b,a),c).", "arg(a)",
           "att(a,)", "arg().", "arg(a-b).", "arg(\u00e9).", "arg(a))."]


def blank(rng):
    return rng.choice(BLANKS)


def plain_fact(rng, names):
    if rng.random() < 0.4:
        kind, items = "arg", [rng.choice(names)]
    else:
        u = rng.choice(names)
        kind, items = "att", [u, u if rng.random() < 0.15 else rng.choice(names)]
    inside = ",".join(blank(rng) + x + blank(rng) for x in items)
    return f"{kind}{blank(rng)}({inside}){blank(rng)}."


def plain_document(rng):
    """A document of arg and att facts that the one-pass path reads."""
    names = rng.sample(NAMES, rng.randint(1, 4))
    facts = [f"arg({x})." for x in names] if rng.random() < 0.6 else []
    facts += [plain_fact(rng, names) for _ in range(rng.randint(1, 10))]
    facts += rng.choices(facts, k=rng.randint(0, 2))  # repeated facts
    rng.shuffle(facts)
    return "".join(blank(rng) + fact for fact in facts) + blank(rng)


def near_miss(rng):
    """A plain document with one change that sends it to the fact loop."""
    text = plain_document(rng)
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(["", " ", "\n", "\r\n\t"])
    if roll < 0.15:
        return text[: text.rindex(".")] + text[text.rindex(".") + 1 :]
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(INSERTS) + text[at:]


def random_document(rng):
    """A document, and whether it is plain rather than a near miss."""
    plain = rng.random() < 0.5
    return (plain_document if plain else near_miss)(rng), plain


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return e.message, e.line, e.col


def outcomes(text):
    """(facts, document) through the one-pass reader, then through the loop.

    Each is the value read, or the error's message, line and column.
    """
    fast = _outcome(document._read_facts, text), _outcome(parse_document, text)
    with patch.object(document, "_read_facts", document._read_fact_loop):
        loop = _outcome(document._read_facts, text), _outcome(parse_document, text)
    return fast, loop


def check(text, plain):
    """What is wrong with reading ``text``, or None."""
    if (document._PLAIN_DOC_RE.fullmatch(text) is not None) != plain:
        return "takes the one-pass path" if not plain else "falls back to the fact loop"
    fast, loop = outcomes(text)
    for what, one_pass, fact_loop in zip(("facts", "document"), fast, loop):
        if one_pass != fact_loop:
            return f"{what}: one pass {one_pass!r}, fact loop {fact_loop!r}"
    return None


def main() -> int:
    rng = Random(SEED)
    start = time.perf_counter()
    counts = {True: 0, False: 0}
    failed = []
    for _ in range(DOCUMENTS):
        text, plain = random_document(rng)
        counts[plain] += 1
        problem = check(text, plain)
        if problem:
            failed.append((text, problem))
    print(f"{DOCUMENTS} documents ({counts[True]} plain, {counts[False]} near misses), "
          f"{len(failed)} failed, {time.perf_counter() - start:.1f} s")
    for text, problem in failed[:20]:
        print(f"MISMATCH {text!r}: {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
