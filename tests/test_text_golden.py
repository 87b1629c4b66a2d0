"""Text-format reports, byte for byte, with their exit codes.

The JSON reports are pinned elsewhere in golden/; these pin the default
text format of every command: `sep report/epi/idempotents` on the
corpus and golden/sep-homs homs, `cat check` and `cat rafael`, `talg`
including its input errors, `ring validate` and `corpus run`.  They
were captured while each command still emitted its own report, before
the commands shared one writer and one exit-code map.

golden/text/cases.json maps a case name to its argv (paths relative to
the repository root), exit code and stderr; `<name>.txt` holds stdout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsep.cli import main

ROOT = Path(__file__).resolve().parent.parent
TEXT = ROOT / "tests" / "golden" / "text"
CASES = json.loads((TEXT / "cases.json").read_text())

# Runs every case in one process and prints {name: [exit, stdout, stderr]}.
RUN_ALL = """
import contextlib, io, json, sys
from hsep.cli import main
results = {}
for name, case in json.load(sys.stdin).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    results[name] = [code, out.getvalue(), err.getvalue()]
sys.stdout.write(json.dumps(results))
"""


def expected(name):
    case = CASES[name]
    return case["exit"], (TEXT / ("%s.txt" % name)).read_bytes(), case["stderr"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_report(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SEPKIT_CAP", raising=False)
    code = main(CASES[name]["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out.encode(), captured.err) == expected(name)


def test_text_reports_under_optimize():
    """Every case again in one `python -O` process: no report byte or
    exit code may depend on an assert."""
    env = {k: v for k, v in os.environ.items() if k != "SEPKIT_CAP"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RUN_ALL],
        input=json.dumps(CASES),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)
    assert sorted(results) == sorted(CASES)
    for name, (code, out, err) in sorted(results.items()):
        assert (code, out.encode(), err) == expected(name), name
