"""Size caps that keep every computation at desk scale.

``NCK_MAX_DIM`` in the environment raises (or lowers) the dimension caps;
the fermionic cap is hard-bounded at 12 because those matrices have side
``2**d``.  A value that is not an integer raises :class:`InvalidParameter`.
The space budgets are fixed: ``STEINHAUSS_ATOM_CAP`` atoms for the
Steinhaus space, and ``VALUE_CAP`` values, atoms times variables, for the
lacunary grid and the sampled Gaussian space
(:func:`nck.spaces.check_value_budget`).
"""

from __future__ import annotations

import os

from .exceptions import InvalidParameter

CAR_DIM_DEFAULT = 10
CAR_DIM_HARD_MAX = 12
RADEMACHER_DIM_DEFAULT = 16
STEINHAUSS_ATOM_CAP = 2**20
VALUE_CAP = 2**24  # atoms times variable count


def _env_override() -> int | None:
    raw = os.environ.get("NCK_MAX_DIM")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"NCK_MAX_DIM must be an integer, got {raw!r}") from None


def car_dim_cap() -> int:
    override = _env_override()
    if override is None:
        return CAR_DIM_DEFAULT
    return min(max(override, 1), CAR_DIM_HARD_MAX)


def rademacher_dim_cap() -> int:
    override = _env_override()
    if override is None:
        return RADEMACHER_DIM_DEFAULT
    return max(override, 1)
