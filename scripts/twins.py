#!/usr/bin/env python3
"""Are the live bindings still only subclasses that name their runtime?

Each protocol binding is written once (``mux/endpoint.py``,
``core/relay.py``, ``core/session.py``, the IPL's ``ipl/runtime.py``, the
broker's ``core/brokering.py``); its ``livenet/`` module holds a subclass
that names the asyncio runtime plus what is establishment on real sockets.  A twin grows back one override at
a time, so this lists — with ``ast``, importing nothing — every method a
live class (or a mixin it lists as a base in the same file) defines that
its shared base also defines, and exits 1 when one is missing from
``twins_allow.json`` beside this script, or when that file allows an
override that no longer exists.  Every allowed override carries its
reason there.

    python scripts/twins.py          # make twins
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("twins_allow.json")

#: where ``Bound`` lives: what it defines counts as the binding's own
RUNTIME = "core/runtime.py"

#: (the one binding, the module of its live subclasses)
PAIRS = [
    ("mux/endpoint.py", "livenet/mux.py"),
    ("core/relay.py", "livenet/relay.py"),
    ("mesh/client.py", "livenet/relay.py"),
    ("core/session.py", "livenet/session.py"),
    ("ipl/runtime.py", "livenet/runtime.py"),
    ("core/brokering.py", "livenet/runtime.py"),
]


def classes(path: Path) -> dict:
    """``{class name: (base names, method names)}`` of one module."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            methods = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            found[node.name] = (bases, methods)
    return found


def methods(name: str, module: dict) -> set:
    """Methods of ``name`` and of its bases defined in the same module."""
    if name not in module:
        return set()
    bases, own = module[name]
    return own.union(*(methods(base, module) for base in bases))


def overrides(shared_path: str, live_path: str) -> list:
    """``Class.method`` for every live redefinition of a shared method."""
    shared = {**classes(SRC / RUNTIME), **classes(SRC / shared_path)}
    live = classes(SRC / live_path)
    found = []
    for name, (bases, _own) in live.items():
        for base in bases:
            if base in shared:
                both = methods(name, live) & methods(base, shared)
                found += [f"{name}.{method}" for method in sorted(both)]
    return found


def main() -> int:
    allowed = json.loads(ALLOW.read_text())
    status = 0
    seen: dict = {}
    for shared_path, live_path in PAIRS:
        listed = allowed.get(live_path, {})
        found = overrides(shared_path, live_path)
        seen.setdefault(live_path, set()).update(found)
        print(f"{live_path} over {shared_path}: {len(found)} overrides")
        for entry in found:
            if entry in listed:
                print(f"  ok       {entry}: {listed[entry]}")
            else:
                print(f"  NOT ALLOWED  {entry}: write it once in "
                      f"{shared_path}, or allow it with a reason in {ALLOW.name}")
                status = 1
    for live_path, found in seen.items():
        for entry in sorted(set(allowed.get(live_path, {})) - found):
            print(f"  STALE    {entry}: allowed in {ALLOW.name} but no longer "
                  "an override")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
