from golden_cli import COLUMNS, GOLDEN, INVOCATIONS, name, record, table_paths, tables


def test_cli_output_matches_the_golden_table(monkeypatch):
    # A change that moves an emitted number regenerates tests/golden (see tests/golden_cli.py)
    # and says in CHANGES.md why each changed file moved.
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = {path.stem: path.read_bytes() for path in GOLDEN.glob("*.txt")}
    actual = {name(argv): record(argv).encode("utf-8") for argv in INVOCATIONS}
    assert sorted(actual) == sorted(expected)
    assert [stem for stem in sorted(actual) if actual[stem] != expected[stem]] == []


def test_figure_presets_and_threshold_table_match_the_golden_files():
    expected = {path.relative_to(GOLDEN).as_posix(): path.read_bytes() for path in table_paths()}
    actual = {relative: text.encode("utf-8") for relative, text in tables().items()}
    assert len(actual) == 25
    assert sorted(actual) == sorted(expected)
    assert [relative for relative in sorted(actual) if actual[relative] != expected[relative]] == []
