"""Run named steps of the CI workflow on this checkout, each `run:` block as GitHub runs it.

    python3 tools/ci_steps.py "Console script" "Verify memory bound" "Traced benchmark run"
    python3 tools/ci_steps.py            # list the steps that have a run: block

Each step's `run:` block is read from .github/workflows/tests.yml by indentation, with no YAML
library, so the workflow stays the one source of each step's checks. A block runs under
`bash --noprofile --norc -eo pipefail` (GitHub's shell for `run:`) in the repository root.
In place of CI's "Install the package", this checkout's src/ leads PYTHONPATH and PATH starts
with a directory that holds an `ncstirling` shim, which runs `python3 -m ncstirling`.
RUNNER_TEMP is a fresh directory. PYTHONUNBUFFERED is removed, as CI does not set it and it
would hide output left in a buffer. The step's output passes through; a PASS or FAIL line
follows it, and the exit status is 1 if any step failed. Standard library only.
"""
from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP_RE = re.compile(r"^( *)- name: (.+)$")
SHIM = '#!/bin/sh\nexec python3 -m ncstirling "$@"\n'


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def steps(text: str) -> dict:
    """{name: script} for each step of the workflow text that has a `run:` key: an inline
    value as one line, or a `run: |` block with the indentation of its first line removed."""
    found = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        step = STEP_RE.match(line)
        if not step:
            continue
        key_indent = len(step.group(1)) + 2  # the keys of a step line up after "- "
        for j in range(i + 1, len(lines)):
            if lines[j].strip() and _indent(lines[j]) < key_indent:
                break  # the next step, or the end of the list
            if _indent(lines[j]) != key_indent or not lines[j].lstrip().startswith("run:"):
                continue
            value = lines[j].split(":", 1)[1].strip()
            if value != "|":
                found[step.group(2)] = value + "\n"
                break
            block = []
            for body in lines[j + 1:]:
                if body.strip() and _indent(body) <= key_indent:
                    break
                block.append(body)
            while block and not block[-1].strip():
                block.pop()
            if not block:
                raise ValueError("step %r has an empty run: block" % step.group(2))
            cut = _indent(block[0])
            found[step.group(2)] = "".join(body[cut:] + "\n" for body in block)
            break
    return found


def run_step(name: str, script: str) -> bool:
    """Run one step's script as GitHub would, with the shim first on PATH; True if it passed."""
    with tempfile.TemporaryDirectory(prefix="ci_steps_") as tmp:
        shim_dir, runner_temp = Path(tmp, "bin"), Path(tmp, "runner_temp")
        shim_dir.mkdir()
        runner_temp.mkdir()
        shim = shim_dir / "ncstirling"
        shim.write_text(SHIM)
        shim.chmod(0o755)
        script_path = Path(tmp, "step.sh")
        script_path.write_text(script)
        env = dict(os.environ, RUNNER_TEMP=str(runner_temp))
        env.pop("PYTHONUNBUFFERED", None)
        for var, first in (("PATH", shim_dir), ("PYTHONPATH", ROOT / "src")):
            env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
        start = time.perf_counter()
        sys.stdout.flush()
        status = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail",
                                 str(script_path)], cwd=ROOT, env=env, timeout=3600).returncode
    elapsed = time.perf_counter() - start
    print("ci_steps: %s %s (%.1f s%s)" % ("PASS" if status == 0 else "FAIL", name, elapsed,
                                          "" if status == 0 else ", exit %d" % status), flush=True)
    return status == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="step names, as in the workflow")
    args = parser.parse_args(argv)
    found = steps(WORKFLOW.read_text())
    if not args.names:
        print("\n".join(found))
        return 0
    unknown = [name for name in args.names if name not in found]
    if unknown:
        parser.error("no step with a run: block named %s" % ", ".join(map(repr, unknown)))
    results = [run_step(name, found[name]) for name in args.names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
