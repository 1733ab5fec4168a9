"""Pin of the perfectness cross-check: every verdict and witness at small p.

For each signed map at p = 2, 3, 5 (8 + 48 + 3,840 = 3,896 maps) the tuple
``(p, image, signs, status, witness)`` from ``is_perfect_via_spaces`` is fed
to one sha256 per p, maps in ``permutations`` x ``product((1, -1))`` order.
A change to the checker that moves any verdict or witness changes a hash.

Regenerate the table only for a deliberate output change:
``python tests/test_cross_check.py`` prints it.
"""

import hashlib
from itertools import permutations, product

import pytest

from perfiso import SignedIsometry, is_perfect_via_spaces

PINNED = {
    2: (8, 'c940a82e73a34b70ae94c63a437c3e2c15ed42c4ab0e2ee0bf54cf79f0ef33ec'),
    3: (48, '2fbf8aa8370230afeeab10af198829e77e79d922f816ee540269aed84921a98a'),
    5: (3840, '9f72e865529efa3e15de3df678c225a9fb9829386e4b972dadef047509b1bf1a'),
}


def _digest(p):
    h = hashlib.sha256()
    count = 0
    for image in permutations(range(p)):
        for signs in product((1, -1), repeat=p):
            verdict = is_perfect_via_spaces(SignedIsometry(p, image, signs))
            h.update(repr((p, image, signs, verdict.status, verdict.witness)).encode())
            count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("p", (2, 3, 5))
def test_cross_check_verdicts_and_witnesses_pinned(p):
    assert _digest(p) == PINNED[p]


if __name__ == "__main__":
    print("PINNED = {")
    for p in (2, 3, 5):
        print(f"    {p}: {_digest(p)!r},")
    print("}")
