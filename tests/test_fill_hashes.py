"""Bit-for-bit pins of the fills that ``tools/fill_hashes.py`` hashes.

The per-fill digests are those the tool prints for a few cheap fills,
and the whole digest is its last line, ``all: 68e3e96b4f267ef6``.  A
change that moves any point, triangle, boundary index or anchor of these
disks fails here, without a manual run of the tool.
"""

import pytest


@pytest.mark.parametrize(
    "gen, area, want",
    [
        ("tube-point", 2126, "88da26047e77d925"),
        ("tube-segment", 2698, "ba286f37c0d6e36f"),
        ("tube-square", 656, "7cd057304ab185fc"),
        ("trace-a2", 1160, "a9ae1bca3f7344dc"),
    ],
)
def test_fill_digest_is_pinned(fill_hashes, gen, area, want):
    fp = fill_hashes.fill(gen, 8, 0)
    assert (fp.area, fill_hashes.fill_digest(fp)) == (area, want)


def test_cone_fill_digest_is_pinned(fill_hashes):
    fp = fill_hashes.ellipse_cone_fill()
    assert (fp.area, fill_hashes.fill_digest(fp)) == (1972, "3f60f459a491b39b")


def test_all_fill_digests_are_pinned(fill_hashes):
    assert list(fill_hashes.digest_lines())[-1] == "all: 68e3e96b4f267ef6"
