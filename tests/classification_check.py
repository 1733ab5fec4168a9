"""Check the classification at p = 13 from the kernel's definition.

Usage: python tests/classification_check.py

tests/oracles.perfect_forms_by_definition decides each of the 11! =
39,916,800 all-positive maps with prefix (0, 1) by kernel counts, with no
pruning rule, and reads the divisibility of entry (0, 0) for all 2^13 sign
patterns.  Its docstring proves that the perfect signed maps are then the
all-positive and all-negative maps on the value-affine images of its forms.
So the classification (every perfect self-isometry is +- an affine map
k -> a + u*k) holds at p exactly when the two equal sign patterns and the
identity form are all that it returns.  The script exits 0 then, else 1.
The same check at p = 11 runs in tier-1
(tests/test_acceptance.py::test_criterion_1_classification_from_definition_at_p11).

It imports only the standard library and tests/oracles.py, which imports
no perfiso.  pytest does not collect this file (its name does not start with
test_), so it is not part of tier-1: it takes two to three minutes.
"""

import sys
import time

from oracles import perfect_forms_by_definition

P = 13


def main() -> int:
    start = time.perf_counter()
    signs, forms = perfect_forms_by_definition(P)
    seconds = time.perf_counter() - start
    print(f"p = {P}: {len(signs)} sign patterns pass entry (0, 0), forms {forms}, {seconds:.1f} s")
    if signs != [(1,) * P, (-1,) * P] or forms != [tuple(range(P))]:
        print("classification_check: not only the equal signs and the identity form", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
