#!/usr/bin/env python3
"""Line coverage of the densedml package under the test suite, standard
library only.

    PYTHONPATH=src python scripts/linecov.py [pytest arguments]

Runs pytest in this process (default arguments: `-q -p no:cacheprovider`)
under a `sys.settrace` hook that traces only frames whose code lives in
src/densedml and records each line they execute.  A module's executable
lines are the line numbers of its code objects, nested ones included, as
`co_lines` reports them.  Every executable line that no test reached is
printed as `module.py:LINE: source`.

The script exits with pytest's code when pytest fails, and otherwise 1 when
an unreached line is not in the allowlist (scripts/linecov_allow.txt) or an
allowlist entry matches no unreached line, so a line that gains a test
leaves the list too.  Each entry is one line,

    module.py: stripped source of the line :: why it stays unreached

matching every unreached line of that module with that source; blank lines
and lines starting with # are ignored.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "densedml")
ALLOW = os.path.join(ROOT, "scripts", "linecov_allow.txt")


def executable_lines(path):
    """Line numbers of every code object compiled from `path`."""
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args):
    """pytest's exit code and {file: lines executed} over the package."""
    reached = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        reached.setdefault(path, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def load_allowlist(path):
    """{(module, source): reason} from the allowlist file."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            module, sep, rest = text.partition(": ")
            source, sep2, reason = rest.rpartition(" :: ")
            if not (sep and sep2 and source.strip() and reason.strip()):
                raise SystemExit(f"{path}:{number}: want 'module.py: source :: reason'")
            entries[(module, source.strip())] = reason.strip()
    return entries


def main(argv):
    code, reached = run_traced(argv or ["-q", "-p", "no:cacheprovider"])
    if code != 0:
        print(f"linecov: pytest exited {code}; no coverage verdict", file=sys.stderr)
        return code
    allow = load_allowlist(ALLOW) if os.path.exists(ALLOW) else {}
    used, bad, total, missed = set(), [], 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached.get(path, set())):
            missed += 1
            key = (name, source[line - 1].strip())
            verdict = "allowed" if key in allow else "UNREACHED"
            print(f"{name}:{line}: {key[1]}  [{verdict}]")
            if key in allow:
                used.add(key)
            else:
                bad.append(key)
    stale = sorted(set(allow) - used)
    for module, text in stale:
        print(f"stale allowlist entry, the line is reached or gone: {module}: {text}")
    print(f"linecov: {total - missed} of {total} executable lines reached; "
          f"{len(bad)} unreached outside the allowlist, {len(stale)} stale entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
