"""Words over the generators of G_L.

Internally a word is a plain string with one character per edge:
lowercase for a generator, uppercase for its inverse:

    a A s S t T x X y Y

The public serialization is token form, e.g. "s a^3 s^-1 t a^-1 t^-1".
a, s, t edges have length 1; x, y edges have length L.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .params import GroupParams

GENERATORS = frozenset("astxy")
_VALID = set("aAsStTxXyY")
_INVERSE = dict(zip("aAsStTxXyY", "AaSsTtXxYy"))

MAX_LETTERS = 10**7  # longest word parse_word (and the CLI) will spell out


def invert_chars(chars: str) -> str:
    """Inverse word: reverse and swap every letter with its inverse."""
    return chars.swapcase()[::-1]


def free_reduce(chars: str) -> str:
    """The freely reduced word (no relators), in one pass over a letter stack."""
    out: list[str] = []
    undo = ""  # the letter that would cancel the top of out
    for ch in chars:
        if ch == undo:
            out.pop()
            undo = _INVERSE[out[-1]] if out else ""
        else:
            out.append(ch)
            undo = _INVERSE[ch]
    return "".join(out)


def power_chars(gen: str, exponent: int) -> str:
    """gen^exponent as a character run; ValueError for a gen outside GENERATORS."""
    if gen not in GENERATORS:
        raise ValueError(f"bad letter {gen!r}")
    return gen * exponent if exponent >= 0 else gen.upper() * -exponent


def parse_word(text: str) -> str:
    """Parse token form ("s a^3 s^-1") into the character encoding.

    A word of more than MAX_LETTERS letters raises ValueError before it is
    spelled out.
    """
    out: list[str] = []
    total = 0
    for token in text.split():
        if token == "1":
            continue
        gen, _, exp = token.partition("^")
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator in token {token!r}")
        k = 1
        if exp:
            try:
                k = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
        total += abs(k)
        if total > MAX_LETTERS:
            raise ValueError(f"word longer than {MAX_LETTERS} letters")
        out.append(power_chars(gen, k))
    return "".join(out)


def power_token(gen: str, exponent: int) -> str:
    """gen^exponent, exponent != 0, as one token: 'a', 'a^3', 'a^-1'."""
    return gen if exponent == 1 else f"{gen}^{exponent}"


def format_word(chars: str) -> str:
    """Token form with runs collapsed: 'saS' -> 's a s^-1'."""
    if not chars:
        return "1"
    tokens = []
    for ch, grp in groupby(chars):
        n = len(list(grp))
        tokens.append(power_token(ch.lower(), n if ch.islower() else -n))
    return " ".join(tokens)


@dataclass(frozen=True)
class PathWord:
    """An edge path in the Cayley graph, starting (by convention) at 1."""

    params: GroupParams
    chars: str

    def __post_init__(self) -> None:
        bad = set(self.chars) - _VALID
        if bad:
            raise ValueError(f"invalid letters {sorted(bad)!r}")

    def __str__(self) -> str:
        return format_word(self.chars)

    @property
    def length(self) -> int:
        """Weighted length: a/s/t edges count 1, x/y edges count L."""
        heavy = sum(self.chars.count(c) for c in "xXyY")
        return len(self.chars) + (self.params.L - 1) * heavy

    def vertex_keys(self) -> list[tuple]:
        """Normal-form keys of all vertices visited, in order (length+1 entries)."""
        from .hnn_group import prefix_keys

        return prefix_keys(self.params.L, self.chars)
