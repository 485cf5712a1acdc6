"""Which cases each verifier id runs: every registry id under the 18
configurations the CLI can produce, with the verifiers stubbed out so
that only their calls are recorded.  This pins the sweeps, including the
``--extended --max-n 3`` cases that are too slow to run here."""

import inspect
from collections import Counter
from itertools import product

import pytest

from nc_capelli import cayley, identities

STUBBED = {
    identities: (
        "verify_classical_capelli", "verify_decomplexified_capelli",
        "verify_rectangular", "verify_thm_theor1", "verify_main_theorem",
        "verify_holfact_capelli", "verify_holfact_general",
        "verify_local_factorization", "verify_css_capelli",
        "verify_implications", "verify_capelli_center", "verify_hc_image",
        "verify_oracle_coldet", "verify_oracle_topform",
        "verify_oracle_decomplexify",
    ),
    cayley: (
        "verify_cayley_scalar", "verify_cayley_decomplexified",
        "verify_cayley_quaternion", "quaternion_commutation_check",
        "radial_identity",
    ),
}

# id: (n values at max_n = 1, 2, 3, with "-" for none and "." for calls
#      that take no n; verifier calls per n, and per sign when signed;
#      whether each call takes the correction sign)
SWEEPS = {
    "capelli.plain": ("1 12 123", 1, False),
    "capelli.turnbull": ("1 12 123", 1, False),
    "capelli.huks": ("- 2 2", 1, False),
    "decomplex.square.plain": ("1 12 12", 1, True),
    "decomplex.square.symmetric": ("1 12 12", 1, True),
    "decomplex.square.antisymmetric": ("- 2 2", 1, True),
    "rect.capelli": ("- 2 23", {2: 5, 3: 18}, False),
    "rect.turnbull": ("- 2 23", {2: 5, 3: 18}, False),
    "rect.antisym": ("- 2 2", 4, False),
    "factorization.weak": ("2 23 23", 1, False),
    "factorization.main": ("1 12 12", {1: 2, 2: 1}, True),
    "factorization.capelli": ("1 12 12", 1, True),
    "factorization.local": (". . .", 1, True),
    "factorization.global-cancellation": ("23 23 23", {2: 2, 3: 3}, False),
    "css.capelli": ("1 12 12", {1: 1, 2: 2}, True),
    "css.implications": ("2 23 23", 1, False),
    "center.capelli": ("2 23 23", 1, False),
    "center.hc": ("12 123 123", 1, False),
    "oracle.coldet": (". . .", 1, False),
    "oracle.topform": (". . .", 1, False),
    "oracle.decomplexify": (". . .", 1, False),
    "cayley.scalar": ("123 123 123", 1, False),
    "cayley.decomplexified": ("1 12 12", 1, False),
    "cayley.quaternion": ("1 12 12", {1: 3, 2: 1}, False),
    "cayley.radial": ("1234 1234 1234", 4, False),
}

# n values under --extended, where they differ from the above
EXTENDED = {
    "decomplex.square.plain": "1 12 123",
    "decomplex.square.symmetric": "1 12 123",
    "cayley.scalar": "123 1234 1234",
}

CONFIGS = [
    {"max_n": max_n, "signs": signs, "extended": extended}
    for max_n, extended, signs in product(
        (1, 2, 3), (False, True), ("plus", "minus", "both"))
]


@pytest.fixture
def calls(monkeypatch):
    """Stub every verifier; each call records (n, sign)."""
    out = []
    for module, names in STUBBED.items():
        for name in names:
            def stub(*args, _sig=inspect.signature(getattr(module, name)),
                     **kwargs):
                bound = _sig.bind(*args, **kwargs).arguments
                instance = bound.get("instance")
                n = instance.C.rows if instance is not None else bound.get("n")
                out.append((n, bound.get("sign")))
            monkeypatch.setattr(module, name, stub)
    return out


def _expected(vid, config):
    ns, per_n, signed = SWEEPS[vid]
    if config["extended"]:
        ns = EXTENDED.get(vid, ns)
    ns = ns.split()[config["max_n"] - 1].strip("-")
    if not signed:
        signs = (None,)
    elif config["signs"] == "both":
        signs = ("plus", "minus")
    else:
        signs = (config["signs"],)
    want = Counter()
    for ch in ns:
        n = None if ch == "." else int(ch)
        for sign in signs:
            want[n, sign] += per_n if isinstance(per_n, int) else per_n[n]
    return want


def test_every_id_is_pinned():
    assert set(identities.REGISTRY) == set(SWEEPS)


@pytest.mark.parametrize("vid", sorted(SWEEPS))
def test_cases_under_every_config(vid, calls):
    for config in CONFIGS:
        calls.clear()
        identities.REGISTRY[vid](config)
        assert Counter(calls) == _expected(vid, config), config
