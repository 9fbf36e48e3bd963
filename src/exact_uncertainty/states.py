"""Pure and mixed quantum states on grids, circles, Fock and finite spaces.

Every state is immutable after construction and every operation is a pure
function, so concurrent evaluation on distinct inputs is always safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import ParseError, UnsupportedObservable, ZeroNorm
from .grids import GridSpec, block_map, block_workers, real_inner, row_blocks

EDGE_DECAY = 1e-12  # box convention: amplitude at edges relative to peak
HERMITIAN_TOL = 1e-10  # density matrices: anti-Hermitian part and negative eigenvalues
EIGEN_FLOOR = 1e-12  # density-matrix eigenvalues below this fraction of the largest are dropped
ZERO_NORM = 1e-14  # a squared norm (trace) below this, or non-finite, is rescaled before use
UNIT_NORM_SLACK = 8 * np.finfo(float).eps  # a norm this near 1 is kept (built states: <= 6 eps)

# the two families of circle states: the sign s of the rotator label j = s * l
# of a stored label l (a photon number n sits at j = -n), the label observable
# (J = hbar * l, N = l), and the default phase-point rule, at least `least`
# points and `per_label` points per label
CIRCLE_FAMILIES = {"periodic": (1, "J", 256, 8), "fock": (-1, "N", 1024, 32)}


def _norm_squared(state, a: np.ndarray | None = None) -> float:
    """sum |psi|^2 * measure of the state's amplitudes, or of ``a``."""
    a = state.amplitudes if a is None else a
    if a.ndim == 2:  # row sums of row blocks (not on OpenBLAS's threads), on two threads if large
        return float(sum(block_map(lambda r, _: real_inner(a[r], a[r]), row_blocks(*a.shape),
                                   block_workers(a.nbytes))) * state.measure)
    return float(np.sum(np.abs(a) ** 2) * state.measure)


def _set_amplitudes(state, shape: tuple) -> None:
    """Store a pure state's amplitudes as complex, of ``shape``, normalized,
    in C order (the 2D row sums read each row as one contiguous run)."""
    amps = np.ascontiguousarray(state.amplitudes, dtype=complex)
    if amps.shape != shape:
        raise ValueError(f"{amps.shape} amplitudes do not match the space {shape}")
    object.__setattr__(state, "amplitudes", _normalized(amps, lambda a: _norm_squared(state, a)))


@dataclass(frozen=True)
class Constants:
    """Physical constants; defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    moment_of_inertia: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < np.inf:  # a NaN fails too
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")


@dataclass(frozen=True)
class GridPureState:
    """Wavefunction samples psi(x_k) on a uniform grid, unit L2(dx) norm."""

    grid: GridSpec
    amplitudes: np.ndarray
    constants: Constants = field(default_factory=Constants)
    family: ClassVar[str] = "grid"

    def __post_init__(self):
        _set_amplitudes(self, (self.grid.n_points,))

    @property
    def measure(self) -> float:
        return self.grid.dx

    norm_squared = property(_norm_squared)

    def position_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def box_warning(self) -> bool:
        """True when the state has not decayed below EDGE_DECAY at the box edges."""
        a = np.abs(self.amplitudes)
        peak = a.max()
        return bool(peak > 0 and max(a[0], a[-1]) > EDGE_DECAY * peak)


@dataclass(frozen=True)
class Grid2DPureState:
    """Two-particle wavefunction psi(x_k, y_l), unit norm; per-axis grids may differ."""

    grid_x: GridSpec
    grid_y: GridSpec
    amplitudes: np.ndarray
    constants: Constants = field(default_factory=Constants)
    family: ClassVar[str] = "grid-2d"  # not a state-file family

    def __post_init__(self):
        _set_amplitudes(self, (self.grid_x.n_points, self.grid_y.n_points))

    @property
    def measure(self) -> float:
        return self.grid_x.dx * self.grid_y.dx

    norm_squared = property(_norm_squared)

    def position_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def peak_amplitude(self) -> float:
        """max |psi|, read over blocks of rows (no full-size temporary)."""
        amps = self.amplitudes
        return max(float(np.abs(amps[rows]).max()) for rows in row_blocks(*amps.shape))

    def box_warning(self, peak_density: float | None = None) -> bool:
        """True when |psi| on the box edges exceeds EDGE_DECAY of max |psi|, which
        is sqrt(``peak_density``) exactly when given, as sqrt(fl(a^2)) = a."""
        a = self.amplitudes
        peak = self.peak_amplitude() if peak_density is None else np.sqrt(peak_density)
        edge = max(np.abs(a[[0, -1], :]).max(), np.abs(a[:, [0, -1]]).max())
        return bool(peak > 0 and edge > EDGE_DECAY * peak)


@dataclass(frozen=True)
class PeriodicState:
    """A state on the circle: amplitudes psi_l over the labels l = label_min..label_max.

    Two families share it (CIRCLE_FAMILIES).  A rotator (``"periodic"``)
    carries angular momentum J = hbar * j on the labels j = l; a
    photon-number state (``"fock"``, labels n = 0..n_max) carries N = n and
    sits on the rotator labels j = -n.  Either way the phase wavefunction is
    f(phi) = (2*pi)**-0.5 * sum_j psi_j e^{i j phi}, sum_l |psi_l|^2 = 1.
    """

    label_min: int
    label_max: int
    amplitudes: np.ndarray
    constants: Constants = field(default_factory=Constants)
    family: str = "periodic"

    def __post_init__(self):
        if self.family not in CIRCLE_FAMILIES:
            raise ValueError(f"unknown circle family {self.family!r}")
        if self.label_min > self.label_max or (self.family == "fock" and self.label_min != 0):
            raise ValueError("need label_min <= label_max, and photon numbers from 0")
        _set_amplitudes(self, (self.label_max - self.label_min + 1,))

    @property
    def j_values(self) -> np.ndarray:
        """The rotator label j of each amplitude: l, or -n in Fock space."""
        return CIRCLE_FAMILIES[self.family][0] * np.arange(self.label_min, self.label_max + 1)

    @property
    def observable(self) -> str:
        """The label observable: "J" on a rotator, "N" in Fock space."""
        return CIRCLE_FAMILIES[self.family][1]

    @property
    def slope(self) -> float:
        """dB/dj for the label observable B: J = hbar * j, N = n = -j."""
        sign, observable = CIRCLE_FAMILIES[self.family][:2]
        return sign * (self.constants.hbar if observable == "J" else 1.0)

    measure = 1.0
    norm_squared = property(_norm_squared)

    def default_phase_points(self) -> int:
        _, _, m, per_label = CIRCLE_FAMILIES[self.family]
        while m < per_label * self.amplitudes.size:
            m *= 2
        return m

    def phase_grid(self, m: int | None = None) -> np.ndarray:
        m = m or self.default_phase_points()
        return 2.0 * np.pi * np.arange(m) / m

    def phase_samples(self, m: int | None = None, weights=None) -> np.ndarray:
        """f(phi) on m uniform points; `weights` multiplies psi_j first."""
        m = m or self.default_phase_points()
        coeff = self.amplitudes if weights is None else self.amplitudes * weights
        g = np.zeros(m, dtype=complex)
        np.add.at(g, np.mod(self.j_values, m), coeff)
        return m * np.fft.ifft(g) / np.sqrt(2.0 * np.pi)

    def phase_density(self, m: int | None = None) -> np.ndarray:
        return np.abs(self.phase_samples(m)) ** 2


def fock_state(n_max: int, amplitudes, constants: Constants | None = None) -> PeriodicState:
    """The photon-number state with amplitudes c_0..c_n_max."""
    return PeriodicState(0, n_max, amplitudes, constants or Constants(), "fock")


def pure_state(family: str, space, amplitudes, constants: Constants | None = None):
    """A state-file family's pure state on a GridSpec ("grid") or a label ``range``."""
    if family == "grid":
        return GridPureState(space, amplitudes, constants or Constants())
    return PeriodicState(space.start, space.stop - 1, amplitudes, constants or Constants(), family)


@dataclass(frozen=True)
class MixedState:
    """Density operator rho = sum_i w_i |psi_i><psi_i| over pure members of
    one family (grid, rotator or Fock) on one grid or label range.

    Every quantity linear in rho is the weighted sum of the members' pure
    quantity (:func:`ensemble_sum`); no n x n matrix is held.  For the grid
    family the trace convention is sum(diag) * dx = 1, as for the continuum
    kernel.
    """

    weights: np.ndarray
    members: tuple

    # the space the members share, read through the first member
    SHARED = frozenset({"grid", "constants", "family", "observable", "slope",
                        "default_phase_points", "phase_grid"})

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        members = tuple(self.members)
        if not members or weights.shape != (len(members),):
            raise ValueError("need one weight per member and at least one member")
        if not np.all(np.isfinite(weights)) or weights.min() < 0.0:
            raise ValueError("weights must be finite and nonnegative")
        spaces = {(m.family, getattr(m, "grid", None), getattr(m, "label_min", None),
                   m.amplitudes.shape, m.constants) for m in members}
        if len(spaces) != 1 or type(members[0]) not in (GridPureState, PeriodicState):
            raise ValueError("members must be grid, rotator or Fock pure states on one space")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_ensemble(cls, weighted_states) -> "MixedState":
        """Mix (weight, pure state) pairs; weights are renormalized."""
        weights = np.array([w for w, _ in weighted_states], dtype=float)
        return cls(weights / weights.sum(), tuple(s for _, s in weighted_states))

    @classmethod
    def from_matrix(cls, matrix, family: str, space, constants=None) -> "MixedState":
        """Factor a density matrix into members of ``family`` on ``space`` (:func:`pure_state`).

        rho * measure is factored once with eigh into sum_i lambda_i v_i v_i^dagger;
        each retained v_i becomes a member with amplitudes v_i / sqrt(measure)
        and weight lambda_i.  Eigenvalues below EIGEN_FLOOR of the largest are
        dropped and the weights renormalized, so the trace is normalized here.
        A matrix whose trace is non-finite or below ZERO_NORM is divided by its
        largest entry first (:func:`_in_range`).  A matrix that is not
        Hermitian positive semidefinite raises ValueError.
        """
        n, measure = (space.n_points, space.dx) if family == "grid" else (len(space), 1.0)
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (n, n):
            raise ValueError("matrix shape does not match the space")
        mat, _ = _in_range(mat, lambda m: float(np.real(np.trace(m))) * measure)
        eigvals, eigvecs = _density_eigh(mat, measure, HERMITIAN_TOL)
        keep = np.flatnonzero(eigvals > EIGEN_FLOOR * eigvals[-1])[::-1]
        return cls.from_ensemble(
            [(eigvals[i], pure_state(family, space, eigvecs[:, i] / np.sqrt(measure), constants))
             for i in keep])

    def __getattr__(self, name):
        if name in MixedState.SHARED:
            return getattr(self.members[0], name)
        raise AttributeError(name)

    @property
    def trace(self) -> float:
        return float(ensemble_sum(self, lambda s: s.norm_squared))

    @property
    def purity(self) -> float:
        """tr[rho^2] = sum_ij w_i w_j |<psi_i|psi_j>|^2."""
        amps = np.array([m.amplitudes for m in self.members])
        overlaps = np.abs(amps.conj() @ amps.T * self.members[0].measure) ** 2
        return float(self.weights @ overlaps @ self.weights)

    @property
    def matrix(self) -> np.ndarray:
        """sum_i w_i psi_i psi_i^dagger, built on request (n x n)."""
        amps = np.array([m.amplitudes for m in self.members])
        return (amps.T * self.weights) @ amps.conj()

    def position_density(self) -> np.ndarray:
        return ensemble_sum(self, GridPureState.position_density)

    def phase_density(self, m: int | None = None) -> np.ndarray:
        return ensemble_sum(self, lambda s: s.phase_density(m))

    def box_warning(self) -> bool:
        d = self.position_density()
        peak = d.max()
        return bool(peak > 0 and max(d[0], d[-1]) > (EDGE_DECAY ** 2) * peak)


GridMixedState = MixedState  # the name grid mixtures were built under


def ensemble_sum(state, quantity):
    """quantity(state) for a pure state; sum_i w_i quantity(psi_i) over the
    members of a MixedState, which is exact for any quantity linear in rho.
    A tuple-valued quantity is summed entry by entry."""
    if not isinstance(state, MixedState):
        return quantity(state)
    totals = None
    for weight, member in zip(state.weights, state.members):
        value = quantity(member)
        terms = value if isinstance(value, tuple) else (value,)
        totals = [(0.0 if totals is None else total) + term * weight
                  for total, term in zip(totals or terms, terms)]
    return tuple(totals) if isinstance(value, tuple) else totals[0]


def _density_eigh(mat: np.ndarray, measure: float, hermitian_tol: float, vectors: bool = True):
    """eigh of ``mat * measure`` (eigenvectors None unless ``vectors``) for a
    density matrix ``mat``, which must be finite, Hermitian to
    ``hermitian_tol`` of its largest entry (or of 1) and positive
    semidefinite; ValueError otherwise."""
    # written so that a NaN or an infinity fails the test
    if not (np.max(np.abs(mat - mat.conj().T)) <= hermitian_tol * max(1.0, np.max(np.abs(mat)))):
        raise ValueError("density matrix is not finite and Hermitian")
    eigvals, eigvecs = (np.linalg.eigh(mat * measure) if vectors
                        else (np.linalg.eigvalsh(mat * measure), None))
    if eigvals[0] < -HERMITIAN_TOL * abs(eigvals[-1]):
        raise ValueError("density matrix is not positive semidefinite")
    return eigvals, eigvecs


@dataclass(frozen=True)
class FiniteState:
    """Density matrix on a d-dimensional Hilbert space (pure = rank one), unit trace."""

    matrix: np.ndarray
    family: ClassVar[str] = "finite"

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError("matrix must be square with dimension >= 2")
        _density_eigh(mat, 1.0, 1e-12, vectors=False)
        mat = _normalized(mat, lambda m: float(np.real(np.trace(m))), root=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_vector(cls, vec) -> "FiniteState":
        """v v^dagger / |v|^2: Hermitian positive semidefinite by construction,
        so only v is checked (finite, nonzero, dimension >= 2; a NaN fails)."""
        v = np.asarray(vec, dtype=complex)
        norm = float(np.linalg.norm(v))
        if not (v.ndim == 1 and v.size >= 2 and 0.0 < norm < np.inf):
            raise ValueError("need a finite, nonzero vector of dimension >= 2")
        v = v / norm
        state = object.__new__(cls)  # skips the eigenvalue test of __post_init__
        object.__setattr__(state, "matrix", np.outer(v, v.conj()))
        return state

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


# ---------------------------------------------------------------------------
# operations


def _normalized(values: np.ndarray, norm_of, root: bool = True) -> np.ndarray:
    """``values`` divided by the square root of their squared norm ``norm_of(values)``,
    or by the trace itself unless ``root``, at any scale (:func:`_in_range`); unchanged,
    bits and all, when that norm is within UNIT_NORM_SLACK of 1."""
    values, norm = _in_range(values, norm_of)
    return values if abs(norm - 1.0) <= UNIT_NORM_SLACK else values / (np.sqrt(norm) if root else norm)


def _in_range(values: np.ndarray, norm_of):
    """``(values, norm_of(values))`` for a norm (squared, or a trace) in
    [ZERO_NORM, inf); otherwise ``values`` are first divided by max |values|,
    so that the scale of an input never decides whether it loads.  Only an
    all-zero input raises ZeroNorm; a non-finite entry raises ParseError."""
    with np.errstate(over="ignore"):  # an overflow is what sends values on to be rescaled
        norm = norm_of(values)
    if ZERO_NORM <= norm < np.inf:
        return values, norm
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise ZeroNorm("state is zero")
    if not np.isfinite(peak):
        raise ParseError("state has a non-finite entry")
    values = values / peak
    return values, norm_of(values)


def embed_in_larger_box(state: GridPureState, factor: int = 4) -> GridPureState:
    """Zero-pad a box-decayed state into a factor-times larger box.

    Exact for decayed states, and refines the conjugate momentum lattice by
    the same factor: needed when momentum-side structure (interference
    oscillations with period 2*pi*hbar / lump separation) sits close to the
    bare lattice spacing.
    """
    grid = state.grid
    if factor < 1 or (factor * grid.n_points) % 2 != 0:
        raise ValueError("factor must be a positive integer on an even grid")
    pad = (factor - 1) * grid.n_points // 2
    amps = np.concatenate([np.zeros(pad), state.amplitudes,
                           np.zeros((factor - 1) * grid.n_points - pad)])
    big = GridSpec(factor * grid.n_points, grid.x_min - pad * grid.dx,
                   grid.x_max + ((factor - 1) * grid.n_points - pad) * grid.dx)
    return GridPureState(big, amps, state.constants)


def to_momentum(state: GridPureState, spectrum=None) -> GridPureState:
    """Momentum-representation wavefunction on the conjugate lattice; from
    ``spectrum``, the ``np.fft.fft`` of the amplitudes, when already formed.

    Convention P = -i*hbar*d/dx, so psi~(p) = (2*pi*hbar)**-0.5 *
    integral psi(x) e^{-i p x / hbar} dx; Parseval holds exactly on the grid.
    """
    hbar = state.constants.hbar
    grid = state.grid
    k = grid.wavenumbers()
    phases = np.exp(-1j * k * grid.x_min)
    spectrum = np.fft.fft(state.amplitudes) if spectrum is None else spectrum
    tilde = grid.dx / np.sqrt(2.0 * np.pi * hbar) * phases * spectrum
    pgrid = grid.conjugate_grid(hbar)
    return GridPureState(pgrid, np.fft.fftshift(tilde), state.constants)


def momentum_density(state) -> tuple[np.ndarray, np.ndarray]:
    """(p values sorted, momentum density) for a grid pure state or mixture."""
    if state.family != "grid":
        raise UnsupportedObservable("momentum density needs a grid state")
    p = state.grid.conjugate_grid(state.constants.hbar).points()
    return p, ensemble_sum(state, lambda s: np.abs(to_momentum(s).amplitudes) ** 2)


def moment(state, observable: str, k: int = 1) -> float:
    """<B^k> for B in {X, P, J, N}, k = 1 or 2, via the natural quadrature."""
    if k not in (1, 2):
        raise ValueError("only first and second moments are supported")
    return moments(state, observable)[k - 1]


def moments(state, observable: str) -> tuple[float, float]:
    """(<B>, <B^2>) from one quadrature of each pure state: one
    ``momentum_density`` per member for P."""
    if isinstance(state, MixedState):
        return tuple(float(m) for m in ensemble_sum(
            state, lambda s: np.array(moments(s, observable))))
    if observable == "X" and isinstance(state, GridPureState):
        b, dens, measure = state.grid.points(), state.position_density(), state.grid.dx
    elif observable == "P" and isinstance(state, GridPureState):
        b, dens = momentum_density(state)
        measure = state.grid.momentum_spacing(state.constants.hbar)
    elif isinstance(state, PeriodicState) and observable == state.observable:
        b, dens, measure = state.slope * state.j_values, np.abs(state.amplitudes) ** 2, 1.0
    else:
        raise UnsupportedObservable(f"{observable!r} is not defined for a {state.family} state")
    return density_moments(b, dens, measure)


def density_moments(labels: np.ndarray, density: np.ndarray, measure: float) -> tuple:
    """(<B>, <B^2>) of a density sampled on the values ``labels`` of B."""
    return tuple(float(np.sum(labels ** k * density) * measure) for k in (1, 2))


def variance(state, observable: str) -> float:
    mean, second = moments(state, observable)
    return second - mean ** 2


def evolve_step(state, potential, dt: float):
    """One Strang split step under H = (kinetic) + V; unitary, O(dt^2) accurate.

    `potential` is sampled on the state's grid (position points for grid
    states, the default phase grid for rotator states); None means free.
    """
    if isinstance(state, GridPureState):
        return _evolve_grid(state, potential, dt)
    if isinstance(state, PeriodicState) and state.family == "periodic":
        return _evolve_rotator(state, potential, dt)
    raise UnsupportedObservable(f"cannot evolve a {state.family} state")


def _evolve_grid(state: GridPureState, potential, dt: float) -> GridPureState:
    c = state.constants
    psi = state.amplitudes
    if potential is not None:
        half = np.exp(-0.5j * np.asarray(potential) * dt / c.hbar)
        psi = half * psi
    p = state.grid.momenta(c.hbar)
    kin = np.exp(-0.5j * p ** 2 * dt / (c.mass * c.hbar))
    psi = np.fft.ifft(kin * np.fft.fft(psi))
    if potential is not None:
        psi = half * psi
    return replace(state, amplitudes=psi)


def _evolve_rotator(state: PeriodicState, potential, dt: float) -> PeriodicState:
    c = state.constants
    j = state.j_values
    kin = np.exp(-0.5j * c.hbar * j.astype(float) ** 2 * dt / c.moment_of_inertia)
    amps = state.amplitudes
    if potential is None:
        return replace(state, amplitudes=kin * amps)
    m = state.default_phase_points()
    v = np.asarray(potential, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"potential must be sampled on the {m}-point phase grid")
    half = np.exp(-0.5j * v * dt / c.hbar)

    def apply_phase_factor(coeffs):  # f(phi) times `half` on the phase grid
        f = replace(state, amplitudes=coeffs).phase_samples(m)
        return np.fft.fft(half * f)[np.mod(j, m)] * (np.sqrt(2.0 * np.pi) / m)

    amps = apply_phase_factor(amps)
    amps = kin * amps
    amps = apply_phase_factor(amps)
    return replace(state, amplitudes=amps)


# ---------------------------------------------------------------------------
# in-memory JSON schema (file I/O lives in the CLI)


def state_to_dict(state) -> dict:
    """Serialize a state to the JSON-ready schema dictionary; a mixture is
    written as its family's document with ``matrix`` in place of
    ``amplitudes``."""
    if isinstance(state, MixedState):
        doc = state_to_dict(state.members[0])
        del doc["amplitudes"]
        doc["matrix"] = [_complex_list(row) for row in state.matrix]
        return doc
    if state.family == "finite":
        return {
            "family": "finite",
            "grid": {"dimension": state.dimension},
            "matrix": [_complex_list(row) for row in state.matrix],
        }
    if state.family == "grid":
        grid = {"n_points": state.grid.n_points, "x_min": state.grid.x_min,
                "x_max": state.grid.x_max}
    elif state.family == "periodic":
        grid = {"j_min": state.label_min, "j_max": state.label_max}
    elif state.family == "fock":
        grid = {"n_max": state.label_max}
    else:
        raise UnsupportedObservable(f"cannot serialize a {state.family} state")
    return {"family": state.family, "grid": grid, "amplitudes": _complex_list(state.amplitudes)}


def state_from_dict(doc: dict, constants: Constants | None = None):
    """Parse the JSON schema dictionary back into a (normalized) state.
    Non-finite entries and density matrices that are not Hermitian positive
    semidefinite raise ParseError, a zero state ZeroNorm."""
    try:
        name = doc["family"]
        grid = doc.get("grid", {})
        if name == "finite":
            return FiniteState(_complex_array(doc["matrix"]))
        if name == "grid":
            space = GridSpec(int(grid["n_points"]), float(grid["x_min"]), float(grid["x_max"]))
        elif name == "periodic":
            space = range(int(grid["j_min"]), int(grid["j_max"]) + 1)
        elif name == "fock":
            space = range(int(grid["n_max"]) + 1)
        else:
            raise ParseError(f"unknown state family {name!r}")
        if "matrix" in doc:
            return MixedState.from_matrix(_complex_array(doc["matrix"]), name, space, constants)
        return pure_state(name, space, _complex_array(doc["amplitudes"]), constants)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad state document: {exc}") from exc


def _complex_list(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _complex_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


# convenience constructors used across tests, demos and the CLI


def gaussian_state(grid: GridSpec, sigma: float, center: float = 0.0, momentum: float = 0.0,
                   chirp: float = 0.0, constants: Constants | None = None) -> GridPureState:
    """Normalized Gaussian with position spread sigma, optional boost and chirp."""
    constants = constants or Constants()
    x = grid.points()
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)
                 + 1j * (momentum * x + chirp * (x - center) ** 2) / constants.hbar)
    return GridPureState(grid, psi, constants)


def fock_basis_state(n: int, n_max: int | None = None,
                     constants: Constants | None = None) -> PeriodicState:
    n_max = n_max if n_max is not None else max(n, 1)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return fock_state(n_max, amps, constants)
