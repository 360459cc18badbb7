"""Check a command's outputs against the reference recorded for it.

Series containers, SVG, CSV and text reports are compared byte for byte.
An output whose reference parses as JSON is compared on the reference's
keys only, so a report that later gains a field still passes.
"""

from __future__ import annotations

import json

_NOT_JSON = object()


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return _NOT_JSON


def _json_diff(want, got, path) -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(_json_diff(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out.extend(_json_diff(w, g, f"{path}[{i}]"))
        return out
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r}, expected {want!r}"]
    return []


def _text_diff(label, want, got) -> list:
    if got is None:
        return [f"{label}: not written"]
    ref = _parse(want)
    if ref is not _NOT_JSON:
        out = _parse(got)
        if out is _NOT_JSON:
            return [f"{label}: not JSON"]
        return _json_diff(ref, out, label)
    if got == want:
        return []
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        if w != g:
            return [f"{label} line {i}: {g!r}, expected {w!r}"]
    return [f"{label}: {len(got_lines)} lines, expected {len(want_lines)}"]


def mismatches(ref, exit_code, stdout, files) -> list:
    """Reasons the outputs differ from the reference; empty when they match.

    ref is {"exit": int, "stdout": str, "files": {name: str}} or None;
    files maps each output file name to its text, or None if missing.
    """
    if ref is None:
        return ["no reference recorded"]
    out = []
    if exit_code != ref["exit"]:
        out.append(f"exit code {exit_code}, expected {ref['exit']}")
    out.extend(_text_diff("stdout", ref["stdout"], stdout))
    for name, want in ref.get("files", {}).items():
        out.extend(_text_diff(name, want, files.get(name)))
    return out
