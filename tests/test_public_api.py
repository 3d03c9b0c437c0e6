"""The package's public surface: every exported name exists, once."""

import upq_packets


def test_every_public_name_resolves_once():
    names = upq_packets.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(upq_packets, n)] == []
