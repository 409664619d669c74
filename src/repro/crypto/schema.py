"""Shape checks generated from the annotations of message dataclasses.

A peer holding a valid key can put any object in any field it signs, so
each message class gets one straight-line check of exact-class tests,
compiled from its annotations as :mod:`.encoding` compiles its encoder.
``float`` also takes an ``int`` (a simulated clock reads one at an int
time); ``bool`` is no ``int``. ``Any`` and a type variable left unbound
are not walked: an envelope's payload is checked where it is opened
(:func:`is_a`), or here when the annotation names it (``SignedMessage[PoAck]``).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
from typing import Any, Callable, List, Optional


class _Checks(dict):
    """``(class, sender field)`` -> its check, compiled on first use."""

    def __missing__(self, key):
        check = self[key] = _compile(*key)
        return check


_CHECKS = _Checks()


def check_for(cls: Any, sender: Optional[str] = None) -> Callable[..., bool]:
    """``check(value)``: ``value`` is exactly a ``cls`` whose fields match
    their annotations. With a ``sender`` field, ``check(value, signer,
    members)`` also wants that field to be ``signer``, in ``members()``."""
    return _CHECKS[cls, sender]


def is_a(value: Any, hint: Any) -> bool:
    """``value`` matches ``hint``, a class or e.g. ``Tuple[Any, ...]``."""
    return _CHECKS[hint, None](value)


def _compile(cls: Any, sender: Optional[str]) -> Callable[..., bool]:
    namespace: dict = {"NUMBER": (float, int)}
    names = itertools.count()

    def emit(var: str, hint: Any, indent: str) -> List[str]:
        """The lines testing ``var`` against ``hint``."""
        if hint in (str, int, bool, bytes):
            return [f"{indent}if {var}.__class__ is not {hint.__name__}: return False"]
        if hint is float:
            return [f"{indent}if {var}.__class__ not in NUMBER: return False"]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        base = origin or hint
        if dataclasses.is_dataclass(base):
            namespace[ref := f"K{next(names)}"] = base
            bound = dict(zip(getattr(base, "__parameters__", ()), args))
            hints = typing.get_type_hints(base)
            out = [f"{indent}if {var}.__class__ is not {ref}: return False"]
            for field in dataclasses.fields(base):
                field_hint = bound.get(hints[field.name], hints[field.name])
                inner = emit(field_var := f"v{next(names)}", field_hint, indent)
                if inner:
                    out += [f"{indent}{field_var} = {var}.{field.name}", *inner]
            return out
        if origin is typing.Union and len(args) == 2 and type(None) in args:
            inner = emit(var, args[args[0] is type(None)], indent + "    ")
            return [f"{indent}if {var} is not None:", *inner] if inner else []
        if origin is tuple:
            out = [f"{indent}if {var}.__class__ is not tuple: return False"]
            if args[-1] is Ellipsis:
                inner = emit(item := f"v{next(names)}", args[0], indent + "    ")
                return out + ([f"{indent}for {item} in {var}:", *inner] if inner else [])
            items = [f"v{next(names)}" for _ in args]
            out += [f"{indent}try: {', '.join(items)}, = {var}",
                    f"{indent}except ValueError: return False"]
            for item, arg in zip(items, args):
                out += emit(item, arg, indent)
            return out
        if hint is Any or isinstance(hint, typing.TypeVar):
            return []
        raise TypeError(f"no shape check for {hint!r}")

    lines = ["def check(value, signer=None, members=None):", *emit("value", cls, "    ")]
    claim = f"value.{sender} == signer and signer in members()" if sender else "True"
    exec(compile("\n".join(lines + [f"    return {claim}"]), __file__, "exec"), namespace)
    return namespace["check"]
