"""The benchmark's probes still find every name they patch in the package.

`perfbench/tracer.py` wraps package functions where their callers look
them up; a rename or deletion there would otherwise surface only as a
failed benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_install_and_restore_every_patched_name():
    for cls, expected in ((tracer.Probe, 2), (tracer.Tracer, 29)):
        patches = cls()
        patches.install()
        saved = list(patches._saved)
        try:
            assert len(saved) == expected
            for module, attr, orig in saved:
                assert getattr(module, attr) is not orig, f"{module.__name__}.{attr} not wrapped"
        finally:
            patches.restore()
        assert not patches._saved
        for module, attr, orig in saved:
            assert getattr(module, attr) is orig, f"{module.__name__}.{attr} not restored"
