"""Shared expression corpora for the parser tests.

VALID_CASES holds (text, n) pairs that must parse and round-trip through the
canonical printer; MALFORMED_CASES holds (text, n, offset) triples where
offset is the byte position of the first invalid token; NESTED_SHAPES builds
inputs at and over the parser's nesting cap.
"""

from __future__ import annotations

from polylens.expr import MAX_NESTING


def build_valid_cases() -> list[tuple[str, int]]:
    cases: list[tuple[str, int]] = []
    atoms = ["0", "1", "2.5", "0.125", "i", "3i", "0.5i", "w", "w1"]
    for a in atoms:
        cases.append((a, 1))
        cases.append((f"-{a}", 1))
        cases.append((f"({a})", 1))
    for a in atoms[:6]:
        for b in ("w", "w^2", "1/w"):
            cases.append((f"{a} + {b}", 1))
            cases.append((f"{a}*{b}", 1))
            cases.append((f"{a} - {b}", 1))
    for e in ("2", "-1", "3", "-2", "0"):
        cases.append((f"w^{e}", 1))
        cases.append((f"(1+w)^{e}", 1))
    for text in (
        "w1*w2",
        "1/w1 + 1/w2",
        "w1/w2",
        "(w1+w2)^2",
        "w2^3 - w1",
        "1/(w1*w2)",
        "3 + 2/w1 + w1*w2",
        "w1 - w2 + i",
    ):
        cases.append((text, 2))
    for text in ("w1*w2*w3", "1/w3 + w2 - w1", "(w1 + w2)*w3"):
        cases.append((text, 3))
    cases.append(("1/w, w", 1))
    cases.append(("w1, w2", 2))
    cases.append(("w1 + w2, w1 - w2, w1*w2", 2))
    cases.append(("i, 2i", 1))
    cases.append(("  1   +   w  ", 1))
    cases.append(("1/w + w", 1))
    cases.append((" + ".join(["1/w"] * 60), 1))  # printed within the nesting cap
    return cases


VALID_CASES = build_valid_cases()

# (text, n, expected byte offset of the first invalid token)
MALFORMED_CASES = [
    ("", 1, 0),
    ("1/w +", 1, 5),
    ("(w", 1, 2),
    ("w)", 1, 1),
    ("w^", 1, 2),
    ("w^1.5", 1, 2),
    ("w^i", 1, 2),
    ("w^(2)", 1, 2),
    ("3 + * 2", 1, 4),
    ("* 3", 1, 0),
    ("1//w", 1, 2),
    ("1 2", 1, 2),
    ("w1w2", 2, 2),
    ("1/w3", 2, 2),
    ("w0", 1, 0),
    ("w", 2, 0),
    ("x+1", 1, 0),
    ("1+$", 1, 2),
    ("(1,2)", 1, 2),
    (".5", 1, 0),
    ("w^+", 1, 3),
    ("w^-", 1, 3),
    ("1/(w1+w2", 2, 8),
    ("()", 1, 1),
    ("i i", 1, 2),
    ("2*,3", 1, 2),
    ("w12", 2, 0),
    ("-", 1, 1),
    ("3^2^2", 1, 3),
    ("4i3", 1, 2),
    # the grammar error at offset 0 comes first even though 'w3' further on
    # would fail lexically for n = 2
    ("+ w3", 2, 0),
    ("1 $", 1, 2),
    # digits are ASCII only: str.isdigit also accepts these
    ("²*w", 1, 0),
    ("١٢*w + 1/w", 1, 0),
    ("w١", 1, 1),
    ("w1²", 2, 2),
    ("1.٢", 1, 1),
]

# The four shapes the nesting cap counts, each m levels deep, with the offset
# of the token that crosses the cap when m = MAX_NESTING + 1.
NESTED_SHAPES = {
    "parentheses": (lambda m: "(" * m + "w" + ")" * m, MAX_NESTING),
    "unary minus": (lambda m: "-" * m + "w", MAX_NESTING),
    "sum": (lambda m: "+".join(["w"] * (m + 1)), 2 * MAX_NESTING + 1),
    "product": (lambda m: "*".join(["w"] * (m + 1)), 2 * MAX_NESTING + 1),
}
