"""Exact combinatorics of (p,q)-clans, the weak and inclusion orders on
GL_p x GL_q orbit closures in the flag variety, Schubert-basis expansions of
their cohomology classes, and the classification of irreducible semisimple
Hessenberg varieties.

``import clanhess`` loads no submodule: the first use of a public name
imports the submodule that defines it (PEP 562), so a process pays only for
what it uses.  ``clanhess.cli`` imports every submodule except ``verify``,
which loads with the verify command.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it exports; cli exports none
_EXPORTS = {
    "clans": (
        "Clan", "ClanStatistics", "clan_count", "clan_length", "dense_clan", "enumerate_clans",
        "gamma_w", "inclusion_leq", "interval_clans", "orbit_dimension", "parse_clan",
        "render_clan", "statistics",
    ),
    "cli": (),
    "flag_oracle": (
        "flag_representative", "geometric_membership", "integer_rank", "least_hessenberg_vector",
    ),
    "hessenberg": (
        "HessOrbitReport", "area", "catalan", "classify_irreducibles", "hess_dimension",
        "hess_orbit_report", "hessenberg_vectors", "is_hessenberg_vector", "m_of_w",
        "orbit_in_hess",
    ),
    "perms": (
        "Permutation", "avoids", "bruhat_leq", "factorization_pairs", "parse_permutation", "phi",
        "render_permutation", "render_word", "symmetric_group", "weak_order_leq",
    ),
    "poset": ("InclusionPoset", "inclusion_poset"),
    "schubert": (
        "IntPolynomial", "SchubertExpansion", "brion_class", "expand_in_schubert_basis",
        "is_multiplicity_free", "monk_product", "product_oracle", "schubert_polynomial",
    ),
    "verify": ("CheckResult", "run_all"),
    "weak_order": (
        "LabeledCover", "WeakOrderGraph", "build_graph", "covers_from", "factorization_bijection",
        "w_set", "w_set_via_bijection",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns name, bind name here, and return it;
    a submodule name returns the submodule."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
