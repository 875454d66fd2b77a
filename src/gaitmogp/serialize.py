"""Flat key-value text documents and atomic file writes.

Model files (mogp-v1) are self-describing documents of
"key = value" lines. Floats are written with repr, which round-trips
bit-exactly through float(); writing is deterministic so identical
models produce identical bytes.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ValidationError


def format_float(x: float) -> str:
    return repr(float(x))


def format_float_list(xs) -> str:
    return ",".join(map(repr, np.asarray(xs, float).tolist()))


def format_int_list(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


def field_kinds(cls) -> dict:
    """Field name -> int, float or str, from a dataclass's annotations.

    Annotations are strings under postponed evaluation; ``float | None``
    reads as float and any other annotation as str.
    """
    kinds = {"int": int, "float": float, "float | None": float}
    return {f.name: kinds.get(f.type, str) for f in fields(cls)}


def parse_number(text: str, what: str = "value", kind=float):
    """kind(text); a ValidationError naming ``what`` unless it is finite."""
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"{what}: not a number: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{what}: not a finite number: {text!r}")
    return value


def parse_float_list(text: str, what: str = "value", kind=float) -> list:
    text = text.strip()
    if not text:
        return []
    return [parse_number(part, what, kind) for part in text.split(",")]


def parse_int_list(text: str, what: str = "value") -> list[int]:
    return parse_float_list(text, what, int)


def render_document(items: list[tuple[str, str]]) -> str:
    lines = []
    for key, value in items:
        if "=" in key or "\n" in key or "\n" in value:
            raise ValidationError(f"illegal characters in document entry {key!r}")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_document(text: str, path: str = "<memory>") -> dict[str, str]:
    """Parse a key-value document into a dict; duplicate keys are errors."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def require_key(entries: dict[str, str], key: str, path: str = "<memory>") -> str:
    if key not in entries:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return entries[key]


def _open_write_mode(path: Path) -> int:
    """The permission bits ``open(path, "w")`` leaves: an existing file's
    own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename; the file
    gets the permission bits ``open(path, "w")`` would leave, not the
    temp file's 0o600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp_name, _open_write_mode(path))
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_document(path, items: list[tuple[str, str]]) -> None:
    atomic_write_text(path, render_document(items))


def read_text(path) -> str:
    """The text of a UTF-8 file; a ValidationError naming it if it is not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_document(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"no such file: {path}")
    return parse_document(read_text(path), path=str(path))
