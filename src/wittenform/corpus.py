"""Bundled example manifolds.

The elliptic surfaces E(n), n even, are built in code from standard
topology; their Donaldson series has a closed form,
e^(Q/2) sinh^(n-2)(<F, h>) (Fintushel-Stern). The K3 surface is E(2):
intersection form 3H + 2(-E8), chi = 24, sigma = -16, b_plus = 3, trivial
w2, and a single spin-c entry (c1 = 0, invariant 1). The remaining fixtures
are synthetic manifolds produced by the round-trip constructor in
`synthetic`.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources
from math import comb

from .invariants import ManifoldData, SpincEntry
from .lattice import direct_sum, e8_form, hyperbolic_plane
from .manifold_io import parse_manifold


def k3_form():
    return k3_manifold().form


def k3_manifold() -> ManifoldData:
    """The K3 surface: E(2) under the name K3."""
    return replace(elliptic_manifold(2), name="K3")


def elliptic_manifold(n: int) -> ManifoldData:
    """The elliptic surface E(n) for even n >= 2: form (2n-1)H + n(-E8),
    chi = 12n, sigma = -8n, c = n, trivial w2, and basic classes (n-2-2j)F
    with SW = (-1)^j C(n-2, j), where the fiber F is the first basis vector
    (isotropic, in the first H). E(2) is the K3 surface. Odd n needs an odd
    form and is refused."""
    if n < 2 or n % 2:
        raise ValueError(f"E({n}): only even n >= 2 are built")
    h = hyperbolic_plane()
    form = direct_sum(*([h] * (2 * n - 1) + [e8_form(negative=True)] * n))
    fiber = (1,) + (0,) * (form.rank - 1)
    spinc = tuple(SpincEntry(c1=tuple((n - 2 - 2 * j) * x for x in fiber),
                             sw=(-1) ** j * comb(n - 2, j))
                  for j in range(n - 1))
    return ManifoldData(
        name=f"E({n})", chi=12 * n, sigma=-8 * n, b_plus=2 * n - 1,
        form=form, w2=(0,) * form.rank, spinc=spinc, sw_simple_type=True)


def list_bundled() -> list[str]:
    root = resources.files("wittenform").joinpath("data")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".manifold"))


def load_bundled(name: str) -> ManifoldData:
    root = resources.files("wittenform").joinpath("data")
    text = root.joinpath(name).read_text(encoding="utf-8")
    return parse_manifold(text, path=f"bundled:{name}")


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled manifold (for handing to the CLI)."""
    return str(resources.files("wittenform").joinpath("data").joinpath(name))
