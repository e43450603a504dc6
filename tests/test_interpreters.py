"""tools/interpreters.py on this interpreter: two generators, no workload, no timing."""

import importlib.util
import io
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("interpreters", ROOT / "tools" / "interpreters.py")
interpreters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interpreters)

GENERATORS = ("make_cli_responses", "make_single_shot_digests")
FILES = [interpreters.GENERATORS[name] for name in GENERATORS]


def test_this_interpreter_rewrites_the_committed_files_and_a_changed_file_differs(tmp_path):
    label = f"{sys.executable} ({platform.python_version()})"
    out = io.StringIO()
    assert interpreters.check([sys.executable], generators=GENERATORS, workloads=(), out=out)
    assert out.getvalue().splitlines() == [f"{label} {name}: same" for name in FILES]

    # A copy of the generators whose committed single-shot digests lost a byte.
    for name in [f"{generator}.py" for generator in GENERATORS] + FILES:
        shutil.copy(interpreters.DATA / name, tmp_path / name)
    digests = tmp_path / FILES[1]
    digests.write_bytes(digests.read_bytes()[:-1])
    out = io.StringIO()
    assert not interpreters.check([sys.executable], data=tmp_path, generators=GENERATORS,
                                  workloads=(), out=out)
    assert out.getvalue().splitlines() == [f"{label} {FILES[0]}: same",
                                           f"{label} {FILES[1]}: differs"]
