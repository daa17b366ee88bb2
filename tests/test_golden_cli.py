from golden_cli import COLUMNS, GOLDEN, INVOCATIONS, name, record


def test_cli_output_matches_the_golden_table(monkeypatch):
    # A change that moves an emitted number regenerates tests/golden (see tests/golden_cli.py)
    # and says in CHANGES.md why each changed file moved.
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("MZI_LAB_THREADS", raising=False)
    expected = {path.stem: path.read_bytes() for path in GOLDEN.glob("*.txt")}
    actual = {name(argv): record(argv).encode("utf-8") for argv in INVOCATIONS}
    assert sorted(actual) == sorted(expected)
    assert [stem for stem in sorted(actual) if actual[stem] != expected[stem]] == []
