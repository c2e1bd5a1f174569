"""Triple scoring models over a shared query/answer form.

Every model scores (h, r, t) as ``pair_scores(query(h, r), k_t)`` where
``query`` is a relation-conditioned map of the head embedding and the answer
``k_t`` is the entity embedding itself:

* transe    query = h + r,            similarity = -||q - k||   (real)
* distmult  query = r * h,            similarity = <q, k>       (real)
* complex   query = r * h (complex),  similarity = Re<q, conj k> (complex)
* rotate    query = e^{i phi} * h,    similarity = -||q - k||   (complex)

Complex vectors are stored realified as [real | imag] halves, which makes
the complex similarity an ordinary dot product and the rotate distance an
ordinary euclidean norm over twice the nominal dimension.

``pair_scores`` without ``out`` is the rank oracle, read by `score_fg` and
`score_fg_all`: elementwise multiply-and-reduce only, so the vectorised
all-entities score of a tail is bit-identical to the scalar score of that tail.
Evaluation's block GEMMs, in the store's dtype, only sort out those that clear
the gold by more than their error bound; the gold and every candidate inside
the bound are scored with this form (see `evaluation`). ``out=k`` selects the
training step's form: delta = k - q in place, einsum and matmul, other bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distances import CacheError, read_file, write_file

DEFAULT_GAMMA = 6.0
NORMS = ("l1", "l2")

CHECKPOINT_MAGIC = b"VLPC"
CHECKPOINT_VERSION = 3
# after the magic: version, model code (the kind's index in ModelKind),
# complex-space flag, dim, entities, relations, train hash (BLAKE2b), index
# of the norm in NORMS
_CHECKPOINT_HEADERS = {CHECKPOINT_VERSION: struct.Struct("<IBBIQQQB")}


class ModelKind(str, Enum):
    TRANSE = "transe"
    DISTMULT = "distmult"
    COMPLEX = "complex"
    ROTATE = "rotate"


def is_complex_kind(kind):
    return kind in (ModelKind.COMPLEX, ModelKind.ROTATE)


def is_distance_kind(kind):
    """Models whose similarity is a negated distance (vs a dot product)."""
    return kind in (ModelKind.TRANSE, ModelKind.ROTATE)


def entity_width(kind, dim):
    """Realified entity vector width for nominal dimension ``dim``."""
    return 2 * dim if is_complex_kind(kind) else dim


def relation_width(kind, dim):  # transe/distmult real; rotate stores phases
    return 2 * dim if kind == ModelKind.COMPLEX else dim


@dataclass
class ParameterStore:
    """The model's tables and the reference aggregator's weights, kept
    together so a single checkpoint restores everything. The aggregator is
    as wide as an entity vector."""

    kind: ModelKind
    dim: int
    entities: np.ndarray   # (n_entities, d_k)
    relations: np.ndarray  # (n_relations, relation_width)
    w_node: np.ndarray     # (d_k, d_k) applied to reference answer embeddings
    w_edge: np.ndarray     # (d_k, d_k) applied to query-difference vectors
    w_agg: np.ndarray      # (d_k, 2 d_k) applied to [pooled ; query]
    norm: str = "l2"       # transe distance norm; rotate is always l2

    @property
    def n_entities(self):
        return self.entities.shape[0]

    @property
    def n_relations(self):
        return self.relations.shape[0]

    @property
    def d_k(self):
        return self.entities.shape[1]

    @property
    def dtype(self):
        return self.entities.dtype

    def param_arrays(self):
        """All trainable arrays in canonical checkpoint order."""
        return [self.entities, self.relations,
                self.w_node, self.w_edge, self.w_agg]

    def copy(self):
        return ParameterStore(self.kind, self.dim,
                              *(a.copy() for a in self.param_arrays()),
                              norm=self.norm)


def param_shapes(kind, dim, n_entities, n_relations):
    """Shapes of ``param_arrays()``, in its order."""
    d_k = entity_width(kind, dim)
    return [(n_entities, d_k), (n_relations, relation_width(kind, dim)),
            (d_k, d_k), (d_k, d_k), (d_k, 2 * d_k)]


def init_parameters(kind, dim, n_entities, n_relations, seed, gamma=DEFAULT_GAMMA,
                    dtype=np.float32, norm="l2"):
    """Seed-determined uniform initialisation, one draw per array in
    ``param_arrays()`` order.

    Distance models use the margin-scaled bound (gamma + 2) / dim, dot models
    the familiar 6 / sqrt(dim). Rotate relation phases are uniform in
    [-pi, pi]. The aggregator weights use uniform Glorot bounds,
    sqrt(6 / (fan_in + fan_out)).
    """
    kind = ModelKind(kind)
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if is_distance_kind(kind):
        bound = (gamma + 2.0) / dim
    else:
        bound = 6.0 / np.sqrt(dim)
    shapes = param_shapes(kind, dim, n_entities, n_relations)
    bounds = [bound, np.pi if kind == ModelKind.ROTATE else bound,
              *(np.sqrt(6.0 / sum(shape)) for shape in shapes[2:])]
    arrays = [rng.uniform(-b, b, size=shape).astype(dtype)
              for b, shape in zip(bounds, shapes)]
    return ParameterStore(kind, dim, *arrays, norm=norm)


def _split(x):
    d = x.shape[-1] // 2
    return x[..., :d], x[..., d:]


def _relation_parts(kind, r):
    """(real, imag) of a complex relation: its halves, or e^{i phi} for
    rotate's phases."""
    return _split(r) if kind == ModelKind.COMPLEX else (np.cos(r), np.sin(r))


def query_batch(store, h_ids, r_ids, heads=None):
    """Query vectors q = query(h, r), (..., d_k), for id arrays of equal
    shape; given ``heads``, for those head vectors (``h_ids`` unused)."""
    h = store.entities[h_ids] if heads is None else heads
    r = store.relations[r_ids]
    kind = store.kind
    if kind == ModelKind.TRANSE:
        return h + r
    if kind == ModelKind.DISTMULT:
        return h * r
    hr, hi = _split(h)  # complex and rotate: the complex product h * r
    rr, ri = _relation_parts(kind, r)
    return np.concatenate([hr * rr - hi * ri, hr * ri + hi * rr], axis=-1)


def query_pullback(store, h_ids, r_ids, upstream, heads=None):
    """Chain an upstream gradient on q back to (d_head, d_relation) rows.

    upstream has shape (..., d_k); returns arrays shaped like the h and r
    embedding rows respectively (callers scatter-add them into tables).
    ``heads`` as in ``query_batch``."""
    kind = store.kind
    if kind == ModelKind.TRANSE:
        return upstream, upstream
    h = store.entities[h_ids] if heads is None else heads
    r = store.relations[r_ids]
    if kind == ModelKind.DISTMULT:
        return upstream * r, upstream * h
    hr, hi = _split(h)
    rr, ri = _relation_parts(kind, r)
    ur, ui = _split(upstream)
    dh = np.concatenate([ur * rr + ui * ri, -ur * ri + ui * rr], axis=-1)
    if kind == ModelKind.COMPLEX:
        return dh, np.concatenate([ur * hr + ui * hi, -ur * hi + ui * hr],
                                  axis=-1)
    qr = hr * rr - hi * ri  # rotate: d/dphi of q is i * q
    qi = hr * ri + hi * rr
    return dh, ur * (-qi) + ui * qr


def pair_scores(store, q, k, out=None):
    """Similarity along the last axis.

    Without ``out``, the rank oracle: q and k broadcast, and each score is an
    elementwise multiply and a sum. ``out=k`` selects the step's form: q is
    (B, d), k is (B, n, d), and a distance model overwrites k with delta =
    k - q, which ``pair_score_pullback`` reads (a dot model reads k as is).
    It forms no squared, product or whole |delta| copy (TransE-l1 sums blocks).
    """
    if not is_distance_kind(store.kind):
        if out is None:
            return (q * k).sum(axis=-1)
        return np.matmul(k, q[:, :, None])[..., 0]
    delta = k - q if out is None else np.subtract(k, q[:, None], out=out)
    if store.kind == ModelKind.TRANSE and store.norm == "l1":
        return -np.abs(delta).sum(axis=-1) if out is None else -np.concatenate(
            [np.abs(part).sum(axis=-1) for part in np.array_split(delta, 8)])
    if out is None:
        return -np.sqrt((delta * delta).sum(axis=-1))
    return -np.sqrt(np.einsum("bld,bld->bl", delta, delta))


def score_fg(store, h, r, t):
    """Triple score f_g(h, r, t) as a python float."""
    return float(pair_scores(store, query_batch(store, h, r),
                             store.entities[t]))


def score_fg_all(store, h, r):
    """f_g(h, r, t') for every entity t', shape (n_entities,).

    Row t of the result is bit-identical to ``score_fg(store, h, r, t)``.
    """
    return pair_scores(store, query_batch(store, h, r), store.entities)


def pair_score_pullback(store, q, delta, u, scores):
    """Gradient of ``sum(u * scores)`` for the step's form of ``pair_scores``
    (q (B, d), ``delta`` the k it was given as ``out=k``, ``scores`` its
    result). Returns (d_q, rows, weights): the candidates' gradient is
    ``weights * rows``, as ``GradBuffer.add_rows`` scatters it. l2 and
    rotate give rows delta and weights c = -u / |delta| (0 where delta is
    0), dot models rows q[:, None] and weights u, TransE-l1 rows
    sign(delta), made in place over ``delta``, and weights -u.
    """
    if not is_distance_kind(store.kind):
        return np.matmul(u[:, None, :], delta)[:, 0], q[:, None], u
    if store.kind == ModelKind.TRANSE and store.norm == "l1":
        sign = np.sign(delta, out=delta)
        return np.matmul(u[:, None, :], sign)[:, 0], sign, -u
    c = np.divide(u, scores, out=np.zeros_like(scores), where=scores < 0)
    return -np.matmul(c[:, None, :], delta)[:, 0], delta, c


@dataclass
class ScoreGrad:
    d_head: np.ndarray
    d_relation: np.ndarray
    d_tail: np.ndarray


def grad_fg(store, h, r, t, upstream=1.0):
    """Analytic gradient of ``upstream * f_g(h, r, t)`` wrt the three rows."""
    h_arr = np.asarray([h])
    r_arr = np.asarray([r])
    q = query_batch(store, h_arr, r_arr)
    delta = store.entities[[[t]]]
    fg = pair_scores(store, q, delta, out=delta)
    dq, rows, w = pair_score_pullback(store, q, delta,
                                      np.asarray([[upstream]]), fg)
    dh, dr = query_pullback(store, h_arr, r_arr, dq)
    return ScoreGrad(dh[0], dr[0], w[0, 0] * rows.reshape(-1, q.shape[-1])[0])


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, store, moments=None, step=0, train_hash=0):
    """Serialize parameters (+ optimizer moments) to the binary format.

    moments is an (m_list, v_list) pair congruent with ``param_arrays()``;
    zeros are written when absent so the layout is fixed.
    """
    params = store.param_arrays()
    m_list, v_list = moments or ([np.zeros_like(a) for a in params],) * 2
    space = 1 if is_complex_kind(store.kind) else 0
    header = CHECKPOINT_MAGIC + _CHECKPOINT_HEADERS[CHECKPOINT_VERSION].pack(
        CHECKPOINT_VERSION, list(ModelKind).index(store.kind), space, store.dim,
        store.n_entities, store.n_relations, train_hash,
        NORMS.index(store.norm))
    arrays = [(arr, "<f4") for arr in (*params, *m_list, *v_list)]
    write_file(path, header, arrays + [(step, "<u8")])


def check_fits(store, ck_hash, kg, train_hash):
    """Raise ValueError unless a checkpoint (its store and train hash) fits
    the graph ``kg`` whose training file hashes to ``train_hash``. A hash of
    0 is unknown and not compared."""
    if ck_hash and train_hash and ck_hash != train_hash:
        raise ValueError(f"checkpoint train-hash {ck_hash:#018x} != dataset "
                         f"{train_hash:#018x}")
    if (store.n_entities, store.n_relations) != (kg.n_entities,
                                                 kg.n_relations):
        raise ValueError(
            f"checkpoint has {store.n_entities} entities and "
            f"{store.n_relations} relations, the dataset {kg.n_entities} "
            f"and {kg.n_relations}")


def load_checkpoint(path):
    """Read a checkpoint; returns (store, (m, v), step, train_hash).

    The model code is the kind's position in ``ModelKind``. The arrays are
    copies, so they stay writable.
    """
    kinds = list(ModelKind)

    def layout(_, code, space, dim, n_ent, n_rel, train_hash, norm_code):
        if code >= len(kinds):
            raise CacheError(f"{path}: unknown model code {code}")
        if space != is_complex_kind(kinds[code]):
            raise CacheError(f"{path}: embedding-space flag disagrees with model")
        if norm_code >= len(NORMS):
            raise CacheError(f"{path}: unknown norm code {norm_code}")
        return [("<f4", a * b) for a, b in
                param_shapes(kinds[code], dim, n_ent, n_rel)] * 3 + [("<u8", 1)]

    _, fields, arrays = read_file(path, CHECKPOINT_MAGIC, _CHECKPOINT_HEADERS,
                                  layout, "checkpoint")
    code, _, dim, n_ent, n_rel, train_hash, norm_code = fields
    shapes = param_shapes(kinds[code], dim, n_ent, n_rel)
    *floats, step = arrays
    params, m_list, v_list = (
        [arr.reshape(shape).copy() for arr, shape in zip(floats[i:i + 5], shapes)]
        for i in (0, 5, 10))
    store = ParameterStore(kinds[code], dim, *params, norm=NORMS[norm_code])
    return store, (m_list, v_list), int(step[0]), train_hash
