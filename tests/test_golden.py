"""Byte identity: the recipe of ``golden.py`` writes, in this environment,
exactly the bytes ``golden.json`` records for it."""

import pytest

import golden


def test_recipe_writes_the_recorded_bytes(tmp_path):
    key = golden.current_key()
    recorded = golden.load_table().get(key)
    if recorded is None:
        pytest.skip(f"golden.json has no entry for {key}; record one with 'python3 tests/golden.py --record'")
    changed = golden.differences(recorded, golden.run_recipe(tmp_path))
    assert not changed, "digests differ from golden.json:\n" + "\n".join(changed)
