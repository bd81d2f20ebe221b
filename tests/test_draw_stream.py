"""Every random draw of verify and ``spark new`` matches its frozen digest."""

from draw_stream import changes, load_frozen, stream


def test_cli_draw_streams_match_frozen_digests():
    frozen = load_frozen()
    got = stream()
    assert changes(frozen, got) == []
    assert got == frozen
