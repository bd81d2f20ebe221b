"""The CLI battery of ``report_digests`` reproduces its frozen digests."""

from report_digests import battery, changes, load_frozen


def test_cli_reports_match_frozen_digests():
    frozen = load_frozen()
    got = battery()
    assert changes(frozen, got) == []
    assert got == frozen
