"""``tools/compare.py``: the tree against itself at smoke scale finds every
output identical; text and checkpoint differences are reported as such."""

import importlib.util
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def test_the_tree_against_itself(tmp_path, capsys):
    assert compare.main(["--parent", str(ROOT), "--change", str(ROOT), "--scale", "smoke", "--work", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "every output identical"
    assert {ln.split()[0] for ln in lines[:-1]} == set(compare.recipes("smoke"))
    assert "split-16           second == unsplit final.chk  parent yes, change yes" in lines
    # every command ran: a blow-up is exit 3, the under-resolved kernel check exit 4, the others exit 0
    codes = {p.parent.name: p.read_text().split("\n", 1)[0] for p in (tmp_path / "change").glob("*/console-0.txt")}
    assert codes.pop("blowup-16") == "exit 3" and codes.pop("kernel-verify") == "exit 4", codes
    assert set(codes.values()) == {"exit 0"}, codes


def test_text_that_differs_in_its_numbers_only():
    assert compare.text_difference("a,1.0,2\nb,nan\n", "a,1.5,2\nb,nan\n") == "max rel diff 0.333"
    assert compare.text_difference("x=1.0\n", "y=1.0\n") == "text differs from line 1"
    assert compare.text_difference("x\n", "x\ny\n") == "text differs from line 2"
    assert compare.text_difference("x\n", "x\r\n") == "text differs in its line ends"


def test_checkpoint_header_and_payload_apart(tmp_path):
    payload = np.array([1.0, 2.0 + 1.0j], "<c16")
    bumped = payload.copy()
    bumped[1] += 0.25
    files = {
        "a": b"BQCHK3 8 1.0\n" + payload.tobytes(),
        "header": b"BQCHK3 8 2.0\n" + payload.tobytes(),
        "payload": b"BQCHK3 8 1.0\n" + bumped.tobytes(),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.chk").write_bytes(data)
    a = str(tmp_path / "a.chk")
    assert compare.compare_file(a, a) == (True, "identical")
    assert compare.compare_file(a, str(tmp_path / "header.chk")) == (False, "header differs, payload identical")
    ok, status = compare.compare_file(a, str(tmp_path / "payload.chk"))
    assert not ok and status.startswith("header identical, payload differs, max coefficient diff 0.1")
