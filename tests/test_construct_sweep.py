"""Every seeded builder command keeps the bytes recorded in goldens/construct-sweep.json."""

import json

from construct_sweep import MANIFEST, commands, record


def test_construct_sweep_keeps_its_bytes():
    entries = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries] == commands()
    changed = [" ".join(e["argv"]) for e in entries if record(e["argv"]) != e]
    assert not changed, f"{len(changed)} command(s) changed their output: {changed[:5]}"
