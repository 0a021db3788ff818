"""Immutable classes with named fields, in place of frozen dataclasses.

A frozen class's constructor, equality, hash and repr are compiled once,
as dataclasses compiles them: each names the fields and reads them
without a loop, and instances compare, hash and print as those of a
frozen dataclass with the same fields.  Importing dataclasses would pull
in inspect, ast and dis, a cost every command line call would pay.
"""

_METHODS = """\
def make(post_init, {setters}):
    def __init__(self, {fields}):
{stores}
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return {values} == {other_values}
        return NotImplemented
    def __hash__(self):
        return hash({values})
    def __repr__(self):
        return f"{name}({reprs})"
    return __init__, __eq__, __hash__, __repr__
"""


class Frozen:
    """Base of the frozen classes.  Only __init__ sets a field, through
    its slot descriptor, which __setattr__ does not intercept."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def compile_methods(cls: type, fields: tuple[str, ...],
                    post_init=None) -> None:
    """Give cls, whose slots include fields, a constructor taking the
    fields in order and then calling post_init on the instance, and
    equality, hash and repr over the fields."""
    values = "(" + "".join(f"self.{f}, " for f in fields) + ")"
    source = _METHODS.format(
        name=cls.__name__, setters="".join(f"set_{f}, " for f in fields),
        fields=", ".join(fields), values=values,
        stores="".join(f"        set_{f}(self, {f})\n" for f in fields)
        + ("        post_init(self)\n" if post_init else "")
        or "        pass\n",
        other_values=values.replace("self.", "other."),
        reprs=", ".join(f"{f}={{self.{f}!r}}" for f in fields))
    namespace: dict = {}
    exec(source, {}, namespace)
    setters = [getattr(cls, field).__set__ for field in fields]
    (cls.__init__, cls.__eq__, cls.__hash__,
     cls.__repr__) = namespace["make"](post_init, *setters)


def frozen(cls: type) -> type:
    """Class decorator in place of @dataclass(frozen=True): the Frozen
    class whose fields are cls's annotated names, in order, a class-level
    value being the field's default.  Its __post_init__, if any, runs
    once the fields are set; the names in its __slots__, if any, get
    slots of their own."""
    body = {key: value for key, value in vars(cls).items()
            if key not in ("__dict__", "__weakref__")}
    fields = tuple(body.get("__annotations__", ()))
    defaults = tuple(body.pop(field) for field in fields if field in body)
    body["__slots__"] = tuple(body.get("__slots__", ())) + fields
    new = type(cls.__name__, (Frozen,), body)
    compile_methods(new, fields, body.get("__post_init__"))
    new.__init__.__defaults__ = defaults or None
    return new
