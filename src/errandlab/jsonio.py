"""The base of errandlab's errors and the JSON rules the commands share:
:func:`read_json` and :func:`write_json`, the one reader and writer of JSON
files (the reader names the file in each :class:`ConfigError` it raises), the
record reader of config and profile documents and the walk every ``*_to_dict``
returns, the number test, and the canonical and indented JSON.  They import
no other errandlab module, so no command loads the session engine for them."""

import json
import math
import os
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, TypeVar

_T = TypeVar("_T")


class ErrandlabError(Exception):
    """The base of each error family, whose ``exit_code`` the CLI returns."""
    exit_code: int


class ConfigError(ErrandlabError, ValueError):
    """Raised for unknown, missing, or invalid configuration content."""
    exit_code = 2


def read_json(path: str | os.PathLike[str], build: Callable[[Any], _T]) -> _T:
    """``build`` of the JSON document in the UTF-8 file at ``path``; a
    ConfigError naming ``path`` if the bytes are not UTF-8 JSON, nest past
    the recursion limit or hold an integer longer than Python converts from
    a string, or if ``build`` raises a ValueError (a ConfigError is one)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        document = json.loads(data.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors too
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return build(document)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Sorted keys and no spaces: the session log's lines and the text config_hash
# digests.  Its encode builds a new C encoder on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _is_number(value: Any) -> bool:
    """An int or a float, and not a bool."""
    return type(value) is int or isinstance(value, float)


def _record(cls: type[_T], document: Any, kind: str, keys: str) -> _T:
    """The dataclass ``cls`` from a JSON object over its defaults, an array
    made a tuple in a field whose default is one (JSON has no tuples); a
    ConfigError if ``document`` is no object or has a key that is no field."""
    if not isinstance(document, Mapping):
        raise ConfigError(f"{kind} document must be a JSON object")
    fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
    unknown = set(document) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {kind} {keys}: {_quoted(sorted(unknown))}")
    tuples = {name for name, f in fields.items() if isinstance(f.default, tuple)}
    return cls(**{key: tuple(value) if key in tuples and isinstance(value, list) else value
                  for key, value in document.items()})  # every key is a field: no TypeError


_JSON_LEAVES = (str, int, float, type(None))  # bool is an int


def _json_native(value: Any) -> Any:
    # A walk over the dataclass fields that shares the leaves instead of
    # deep-copying them.
    if isinstance(value, _JSON_LEAVES):
        return value
    if isinstance(value, dict):
        return {str(key): _json_native(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_native(item) for item in value]
    return {name: _json_native(item) for name, item in vars(value).items()}


_QUOTE_MAX = 60  # the most characters of a refused value that a fault quotes


def _quoted(value: Any) -> str:
    """``repr(value)``, or its first _QUOTE_MAX characters and its full
    length when it is longer, so that a fault stays one short line."""
    text = repr(value)
    return text if len(text) <= _QUOTE_MAX else f"{text[:_QUOTE_MAX]}... ({len(text)} characters)"


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# json's text of each leaf type.  A leaf is looked up by its exact type, and
# a subclass (numpy.float64, a str or int enum) by the first base json tests.
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: lambda value: "true" if value else "false", type(None): lambda value: "null",
}


def _key_text(key: Any) -> str:
    # json sorts by the original key, then writes it as a quoted leaf
    for base in (str, float, bool, type(None), int):
        if isinstance(key, base):
            text = _LEAF_TEXT[base](key)
            return text if base is str else encode_basestring_ascii(text)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value``'s JSON to ``out``, its closing bracket after ``indent``."""
    text = _LEAF_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif not isinstance(value, (dict, list, tuple)):
        for base in (str, int, float):
            if isinstance(value, base):
                out.append(_LEAF_TEXT[base](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
            out.append(f"{sep}{key}: ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")


def _json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a tree of JSON
    values (a container inside itself recurses without end)."""
    # before 3.13 an indent sends json.dumps to its pure-Python encoder,
    # which the writer beats; json.dumps(value, indent=2, sort_keys=True)
    # replaces the writer once requires-python reaches 3.13
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def write_json(path: str | os.PathLike[str], value: Any) -> None:
    """Write ``value``'s indented JSON and a newline to ``path`` in UTF-8, LF on every OS."""
    with open(path, "wb") as handle:
        handle.write((_json_text(value) + "\n").encode("utf-8"))
