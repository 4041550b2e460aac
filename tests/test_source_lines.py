"""The 100-column rule for the package source, as the CI workflow's awk step
also checks it."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "binforms"


def test_no_source_line_is_longer_than_100_columns():
    long = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, long
