"""Two-world truth profiles used throughout the package.

The semantics lives on a two-point Kripke frame whose worlds we call HERE
(the actual world) and THERE, with HERE strictly below THERE. A proposition
is assigned a persistent truth profile: once true, it stays true when moving
up. That leaves three admissible profiles, named here by their (HERE, THERE)
truth pair.
"""

from __future__ import annotations

import enum


class World(enum.Enum):
    """The two frame points. HERE is the actual world, THERE sits above it."""

    HERE = "t"
    THERE = "s"

    def and_above(self) -> tuple["World", ...]:
        """Worlds reachable from this one, itself included."""
        if self is World.HERE:
            return (World.HERE, World.THERE)
        return (World.THERE,)


@enum.unique
class ThreeVal(enum.Enum):
    """Persistent (HERE, THERE) truth pairs; (true, false) is inadmissible."""

    FF = (False, False)
    FT = (False, True)
    TT = (True, True)

    # Members are singletons compared by identity, so identity hashing is
    # consistent and skips Enum's Python-level hash of the member name (a
    # scan hashes its shape, a tuple of profiles, on every call).
    __hash__ = object.__hash__

    @property
    def here(self) -> bool:
        return self.value[0]

    @property
    def there(self) -> bool:
        return self.value[1]

    def at(self, world: World) -> bool:
        return self.here if world is World.HERE else self.there

    @property
    def decided(self) -> bool:
        """True when the profile is classical, i.e. not the in-between FT."""
        return self is not ThreeVal.FT

    @classmethod
    def from_pair(cls, here: bool, there: bool) -> "ThreeVal":
        if here and not there:
            raise ValueError("profile (true at HERE, false at THERE) is not persistent")
        return _BY_PAIR[(here, there)]


_BY_PAIR = {v.value: v for v in ThreeVal}

# Canonical scan order for every brute-force enumeration in the package.
VALUE_ORDER = (ThreeVal.FF, ThreeVal.FT, ThreeVal.TT)
DECIDED_ORDER = (ThreeVal.FF, ThreeVal.TT)
