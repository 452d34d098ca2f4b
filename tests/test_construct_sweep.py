"""Every seeded command in the byte manifests keeps the bytes recorded there."""

from construct_sweep import MANIFEST, SAMPLE_MANIFEST, changed, commands, sample_commands


def test_construct_sweep_keeps_its_bytes():
    found = changed(MANIFEST, commands())
    assert not found, f"{len(found)} command(s) changed their output: {found[:5]}"


def test_sample_sweep_keeps_its_bytes():
    found = changed(SAMPLE_MANIFEST, sample_commands())
    assert not found, f"{len(found)} command(s) changed their output: {found[:5]}"
