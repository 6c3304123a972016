"""A plain-text format for recorded test cases, so fixed corpora can be committed and replayed.

One case per line, four tab-separated fields (the expression and the box
text hold spaces): seed, expression source, box text, check name.
``data/fixed_cases.manifest`` is one such corpus.
"""

from dataclasses import dataclass

from relival.expr import Expr, parse, to_source
from relival.interval import Box, parse_box


@dataclass(frozen=True)
class ManifestCase:
    """One recorded test case: seed, expression source, box text, check name."""

    seed: int
    expression: str
    box: str
    check: str

    def parsed(self):
        """(expr, box) pair reconstructed from the recorded texts."""
        e, _ = parse(self.expression)
        return e, parse_box(self.box)


def write_manifest(path, cases) -> None:
    """Write cases one per line, tab-separated (fields contain spaces)."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in cases:
            fh.write(f"{c.seed}\t{c.expression}\t{c.box}\t{c.check}\n")


def read_manifest(path):
    """Read a manifest written by ``write_manifest``; skips blank lines."""
    cases = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"manifest line {lineno} needs 4 tab-separated fields")
            cases.append(ManifestCase(int(parts[0]), parts[1], parts[2], parts[3]))
    return cases


def case_for(seed: int, e: Expr, box: Box, check: str) -> ManifestCase:
    """Manifest record for an in-memory case."""
    return ManifestCase(seed, to_source(e), str(box), check)
