"""Frozen stdout of the ``lowdeg`` commands.

Every case runs one ``diffchar lowdeg`` invocation on payloads from
``data/lowdeg_battery.json`` and compares its exit code and the sha256
of its stdout with the values frozen below: circle maps, connections
under both command names, and gerbes in the single-chart and the
patch-cover model, each with and without ``--cycle``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diffchar.cli import canonical_json, main

DATA = Path(__file__).parent / "data" / "lowdeg_battery.json"
GERBE_SPACES = ("circle3", "circle4", "circle5", "sphere2", "sphere3", "torus")


def _cases():
    cases = {}
    for name in ("circle4", "circle5", "sphere2", "sphere2-winds", "circle3-branch", "torus"):
        space = name.split("-")[0]
        cases[f"circle-{name}"] = ["circle", "--space", space, "--values", f"circle-{name}"]
    for name in ("sphere2", "torus", "sphere3", "circle4", "sphere2-branch"):
        space = name.split("-")[0]
        cases[f"conn-{name}"] = ["conn", "--space", space, "--theta", f"conn-{name}"]
    cases["flux-sphere2"] = ["flux", "--space", "sphere2", "--theta", "flux-sphere2"]
    for model in ("global", "cover"):
        for space in GERBE_SPACES:
            argv = ["gerbe", "--space", space, "--gerbe", f"gerbe-{model}-{space}"]
            cases[f"gerbe-{model}-{space}"] = argv
            cases[f"gerbe-{model}-{space}-cycle"] = argv + ["--cycle", f"cycle-{space}"]
    return cases


CASES = _cases()

# (exit code, sha256 of stdout); an input error prints nothing
FROZEN = {
    "circle-circle3-branch": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "circle-circle4": (0, "f3e8b4abed87f88a2b8d2abbbd39c6d21f291fca11f4ec32a1aa8ea8994a42c5"),
    "circle-circle5": (0, "3c06021b21e3ed2959b802d98e487b71f6925812021008ae232b1efd5bb33548"),
    "circle-sphere2": (0, "b7347d6d9c8fe866d7a2f3bf7faf87144b8640319157ffe69b863377a22e124b"),
    "circle-sphere2-winds": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "circle-torus": (0, "f2aa0c8ae1329e15edf8818a68bd1b96aefe35d8dec509280499c228fd523289"),
    "conn-circle4": (0, "daf11806532c49ac662304fc562f434858ddd06e753f588718f8055c30b02239"),
    "conn-sphere2": (0, "ca94ea42e69b2df2963a839b12f0efb519872dd49eb5a3fabf0b5d649bbbe4fa"),
    "conn-sphere2-branch": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conn-sphere3": (0, "ac0ba768ca11f56d1414ac9fef0760a1ac574d22c770db41c2d610607a64deb6"),
    "conn-torus": (0, "9f988442d46879e74d8a9804a6b8f8356ed2db4cf3d7a5d97345015785d3cab6"),
    "flux-sphere2": (0, "fe0ebbe1195d40eafe1ee69b8a0699e52c6c8aaeaff81b8d7f623a0c4a192f90"),
    "gerbe-cover-circle3": (0, "f98c308912828721189064e5563aba733acaa7676fef14e059e27968b23942ac"),
    "gerbe-cover-circle3-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-cover-circle4": (0, "fc81572e79f547a8b9f6e83dfbd7a30d0b9a5401d360c4cd446963ce23c2e4d5"),
    "gerbe-cover-circle4-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-cover-circle5": (0, "6834097d7b26ccb044d944d9dbe8605ea588e4408294f19112390eab092bd7c2"),
    "gerbe-cover-circle5-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-cover-sphere2": (0, "6588a2d54a5bec2c085b9f1c52a92020e1d49d163de50d6cdd0487febaa547b7"),
    "gerbe-cover-sphere2-cycle": (0, "05028920088366f236b8e052499a9f7b85cec6da5d1951ad191350a757dfb0f0"),
    "gerbe-cover-sphere3": (0, "342fb0aa82d1e5515182e76cb0329e76773e9fb5636f280bef390d174648e29a"),
    "gerbe-cover-sphere3-cycle": (0, "78e4c93e8e8de4bb1232efa52442b118d8a1a05ce401ba2cf3caabeb9d2ae6cc"),
    "gerbe-cover-torus": (0, "d95e682505698097b124c6413bb1b95eff4dd5b393ab1b56fc66df42f92ad8d8"),
    "gerbe-cover-torus-cycle": (0, "2183b55e515953c8a747a52f1320eeaf8252a09ec643af16bd7766bd607aba00"),
    "gerbe-global-circle3": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-circle3-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-circle4": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-circle4-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-circle5": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-circle5-cycle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gerbe-global-sphere2": (0, "3d1b1526d4dc20f8fdf16dffe239d42f25d7a0d276a86df21d57af40baaedf6a"),
    "gerbe-global-sphere2-cycle": (0, "e37f1d77cfa0fbadae57c1ecb22fa9e2242ea6c775454cb1bd0ce6a201a4611b"),
    "gerbe-global-sphere3": (0, "1ccb425b569a3a7765d14211934ad7b4d3b5c3dcfcb781344c54187ca629ddcd"),
    "gerbe-global-sphere3-cycle": (0, "2a222f8cd123f556f644a599eccee32efdfd8d60045655ac98cb21dfb19d1eea"),
    "gerbe-global-torus": (0, "cccefba1347befd297dcbe1b95716ee36d046caf902a2510214e55e07674fd8c"),
    "gerbe-global-torus-cycle": (0, "4cc989293acae4d69250cbfc7e5d48759851cda55f1adc1149be2716d4afc5bd"),
}


def _run(tmp_path, capsys, argv):
    payloads = json.loads(DATA.read_text())
    resolved = []
    for a in argv:
        if a in payloads:
            path = tmp_path / f"{a}.json"
            path.write_text(canonical_json(payloads[a]))
            a = str(path)
        resolved.append(a)
    code = main(["lowdeg"] + resolved)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_lowdeg_stdout_frozen(tmp_path, capsys, case):
    assert _run(tmp_path, capsys, CASES[case]) == FROZEN[case]
