#!/usr/bin/env python
"""Generate docs/api.md: an API reference from the live docstrings.

Walks every public module of :mod:`repro`, extracts the module
docstring's first paragraph plus each public class/function signature
and summary line, and writes a single browsable markdown page.  Run
after any API change:

    PYTHONPATH=src python scripts/generate_api_docs.py [--check]

``--check`` compares without writing: it prints a unified diff and
exits 1 when the committed page is stale.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Sequence

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _first_paragraph(doc: str) -> str:
    lines = []
    for line in (doc or "").strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        member = getattr(module, name, None)
        if member is None:
            continue
        if inspect.ismodule(member):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented where it is defined
        yield name, member


def _document_class(name, cls, out):
    out.append(f"#### `{name}{_signature(cls.__init__)}`\n")
    out.append(_first_paragraph(inspect.getdoc(cls)) + "\n")
    methods = []
    for member_name, member in inspect.getmembers(cls):
        if member_name.startswith("_"):
            continue
        if inspect.isfunction(member) and member.__qualname__.startswith(
            cls.__name__ + "."
        ):
            methods.append(
                f"- `{member_name}{_signature(member)}` — "
                f"{_first_paragraph(inspect.getdoc(member))}"
            )
        elif isinstance(member, property) and (member.fget.__qualname__.startswith(cls.__name__ + ".")):
            methods.append(
                f"- `{member_name}` *(property)* — "
                f"{_first_paragraph(inspect.getdoc(member))}"
            )
    out.extend(methods)
    if methods:
        out.append("")


def render() -> str:
    """The API reference page, as markdown."""
    out = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/generate_api_docs.py`; do",
        "not edit by hand.",
        "",
    ]
    modules = sorted(
        module_info.name
        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not module_info.ispkg
    )
    packages = sorted(
        {name.rsplit(".", 1)[0] for name in modules if name.count(".") > 1}
    )
    for package in ["repro"] + packages:
        package_module = importlib.import_module(package)
        out.append(f"## `{package}`\n")
        out.append(_first_paragraph(inspect.getdoc(package_module)) + "\n")
        for module_name in modules:
            if module_name.rsplit(".", 1)[0] != package:
                continue
            module = importlib.import_module(module_name)
            out.append(f"### `{module_name}`\n")
            out.append(_first_paragraph(inspect.getdoc(module)) + "\n")
            for name, member in _public_members(module):
                if inspect.isclass(member):
                    _document_class(name, member, out)
                elif inspect.isfunction(member):
                    out.append(
                        f"#### `{name}{_signature(member)}`\n"
                    )
                    out.append(_first_paragraph(inspect.getdoc(member)) + "\n")
    return "\n".join(out) + "\n"


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare only; print the diff and exit 1 if the page is stale",
    )
    args = parser.parse_args(argv)
    new = render()
    if not args.check:
        OUT.write_text(new, encoding="utf-8")
        print(f"wrote {OUT} ({len(new.splitlines())} lines)")
        return 0
    old = OUT.read_text(encoding="utf-8") if OUT.exists() else ""
    if old == new:
        print(f"{OUT.name}: current")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile="docs/api.md (committed)",
            tofile="docs/api.md (regenerated)",
        )
    )
    print(f"{OUT.name}: STALE; run scripts/generate_api_docs.py to regenerate")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
