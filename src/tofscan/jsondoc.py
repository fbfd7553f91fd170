"""Typed reads of the JSON documents from outside the program: rig, scene and payloads.
A defect raises ValueError naming its key path, ``rig[0].intrinsics.width: expected
integer, got float`` say. JSON's true and false are never integers or numbers."""

_KINDS = {"object": dict, "list": list, "string": str, "integer": int, "number": (int, float)}
_REQUIRED = object()


def is_kind(value, kind: str) -> bool:
    return isinstance(value, _KINDS[kind]) and not isinstance(value, bool)


def check(value, path: str, kind: str, items: str | None = None):
    """``value``, if it is of ``kind`` and, for a list, every item of kind ``items``."""
    if not is_kind(value, kind):
        raise ValueError(f"{path}: expected {kind}, got "
                         f"{'null' if value is None else type(value).__name__}")
    for i, item in enumerate(value if items else ()):
        check(item, f"{path}[{i}]", items)
    return value


def get(doc: dict, path: str, key: str, kind: str, items: str | None = None, default=_REQUIRED):
    """``doc[key]`` checked as ``kind`` at ``path.key``; ``default`` if absent, when given."""
    if key not in doc and default is _REQUIRED:
        raise ValueError(f"{path}: missing key {key!r}")
    return check(doc[key], f"{path}.{key}", kind, items) if key in doc else default


def build(path: str, make, *args):
    """``make(*args)``, with the ValueError of its own checks led by ``path``."""
    try:
        return make(*args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
