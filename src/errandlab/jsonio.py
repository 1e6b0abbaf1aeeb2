"""The base of errandlab's errors and every JSON rule of the package: the one
reader and writer of JSON files (:func:`read_json`, which names the file in
each :class:`ConfigError` it raises, and :func:`write_json`), the record
reader of config and profile documents, the walk every ``*_to_dict`` returns,
the package's integer and number tests, and the one canonical JSON encoder
and the indented JSON, which name each key as json does.  They import no
other errandlab module, so no command loads the session engine for them."""

import json
import math
import os
from collections.abc import Mapping
from json.encoder import c_make_encoder, encode_basestring_ascii  # type: ignore[attr-defined]
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")


class ErrandlabError(Exception):
    """The base of each error family, whose ``exit_code`` the CLI returns."""
    exit_code: int


class ConfigError(ErrandlabError, ValueError):
    """Raised for unknown, missing, or invalid configuration content."""
    exit_code = 2


def read_json(path: str | os.PathLike[str], build: Callable[[Any], _T]) -> _T:
    """``build`` of the JSON document in the UTF-8 file at ``path``, a leading
    byte-order mark skipped; a ConfigError naming ``path`` if the bytes are
    not UTF-8 JSON, nest past the recursion limit or hold an integer longer
    than Python converts from a string, or if ``build`` raises a ValueError
    (a ConfigError is one)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        document = json.loads(data.decode("utf-8-sig"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors too
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return build(document)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _as_object(value: Any) -> dict:
    # the encoder's hook for what json does not write itself (never a dict):
    # any Mapping is written as an object
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The canonical JSON (sorted keys, no spaces, ASCII) of the session log and
# config_hash, in chunks.  The arguments: markers (None: nothing written holds
# itself), default, encoder, indent, key and item separators, sort_keys,
# skipkeys, allow_nan.
_canonical_chunks = c_make_encoder(None, _as_object, encode_basestring_ascii,
                                   None, ":", ",", True, False, True)


def _canonical(value: Any) -> str:
    return "".join(_canonical_chunks(value, 0))


def _is_int(value: Any) -> bool:
    """An int or an int subclass such as an IntEnum, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """An integer, as :func:`_is_int` reads one, or a float."""
    return _is_int(value) or isinstance(value, float)


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
    # deep-copying them, and names each key as json does.
    if isinstance(value, _JSON_LEAVES):
        return value
    if isinstance(value, dict):
        return {key if type(key) is str else str(key) if type(key) is int else _json_key(key):
                _json_native(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_native(item) for item in value]
    if isinstance(value, Mapping):  # after dict: a Mapping's isinstance is slow
        return _json_native(dict(value))
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


def _json_key(key: Any) -> str:
    """The name json gives the dict key ``key``: a str subclass's plain
    value, an int, float, bool or None spelled as json spells it."""
    for base in (str, float, bool, type(None), int):
        if isinstance(key, base):
            return str.__str__(key) if base is str else _LEAF_TEXT[base](key)
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
        for key, item in sorted(value.items()):  # json sorts by the original key
            key = encode_basestring_ascii(key if type(key) is str else _json_key(key))
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
