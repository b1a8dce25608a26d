"""The compressed MaxEnt polynomial ``P`` (Eq. 5 / Theorem 4.1).

The polynomial is never materialized as monomials.  It is stored as

    P  =  Π_{p free} fullsum_p  ×  Π_c Q_c
    Q_c =  Σ_t  dprod_c[t]  ·  Π_{p ∈ positions(c)} rangesum_p(lo_t, hi_t)

where ``rangesum_p`` sums the (possibly query-masked) 1D variables of
attribute ``p`` over an inclusive index range, and ``dprod`` is the
``Π_{j∈S}(δ_j − 1)`` factor of each term.  All range sums are computed
with prefix sums, so a full evaluation is ``O(#terms · m + Σ N_i)`` —
this is the oracle behind both query answering (Sec 4.2: evaluate ``P``
with excluded 1D variables set to 0) and the solver's gradients.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.terms import build_components
from repro.core.variables import ModelParameters
from repro.errors import SolverError
from repro.stats.statistic import StatisticSet


def product_excluding(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """For each entry along ``axis``, the product of all *other*
    entries.  Implemented with prefix/suffix cumulative products so
    zeros are handled exactly (no division)."""
    values = np.asarray(values, dtype=float)
    ones_shape = list(values.shape)
    ones_shape[axis] = 1
    ones = np.ones(ones_shape, dtype=float)
    before = np.concatenate(
        [ones, np.cumprod(values, axis=axis).take(range(values.shape[axis] - 1), axis=axis)],
        axis=axis,
    )
    reversed_values = np.flip(values, axis=axis)
    after = np.flip(
        np.concatenate(
            [ones, np.cumprod(reversed_values, axis=axis).take(range(values.shape[axis] - 1), axis=axis)],
            axis=axis,
        ),
        axis=axis,
    )
    return before * after


class EvaluationParts:
    """Intermediate factors of one polynomial evaluation, cached so the
    solver can reuse them for gradients."""

    __slots__ = (
        "prefixes",
        "full_sums",
        "range_sums",
        "range_products",
        "delta_products",
        "component_values",
        "free_product",
        "value",
    )

    def __init__(
        self,
        prefixes,
        full_sums,
        range_sums,
        range_products,
        delta_products,
        component_values,
        free_product,
        value,
    ):
        self.prefixes = prefixes
        self.full_sums = full_sums
        self.range_sums = range_sums
        self.range_products = range_products
        self.delta_products = delta_products
        self.component_values = component_values
        self.free_product = free_product
        self.value = value


class CompressedPolynomial:
    """Compressed representation of ``P`` for one statistic set.

    The structure (terms) depends only on the statistic *predicates*;
    the variable *values* are supplied per call through
    :class:`~repro.core.variables.ModelParameters`.
    """

    def __init__(self, statistic_set: StatisticSet, max_terms: int | None = None):
        self.statistic_set = statistic_set
        self.schema = statistic_set.schema
        self.sizes = self.schema.sizes()
        if max_terms is None:
            self.components, self.free_positions = build_components(statistic_set)
        else:
            self.components, self.free_positions = build_components(
                statistic_set, max_terms
            )
        self.num_deltas = statistic_set.num_multi_dim
        self._component_of_position: dict[int, int] = {}
        for index, component in enumerate(self.components):
            for pos in component.positions:
                self._component_of_position[pos] = index
        self._component_of_stat: dict[int, int] = {}
        for index, component in enumerate(self.components):
            for stat in component.stat_terms:
                self._component_of_stat[stat] = index

    # ------------------------------------------------------------------
    # Size accounting (Sec 4.1 / Theorem 4.2)
    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        """Compressed term count (empty-set terms included)."""
        return sum(component.num_terms for component in self.components) + len(
            self.free_positions
        )

    @property
    def num_uncompressed_monomials(self) -> int:
        """``|Tup|`` — the monomial count of the uncompressed Eq. (5)."""
        return self.schema.num_possible_tuples()

    def size_report(self) -> dict:
        """Summary-size metrics used by the compression benchmarks."""
        range_entries = sum(
            component.num_terms * len(component.positions)
            for component in self.components
        )
        literal_terms = 1
        for component in self.components:
            literal_terms *= component.num_terms
        return {
            "num_components": len(self.components),
            "num_terms": self.num_terms,
            # What a literal Theorem 4.1 enumeration (no connected-
            # component factorization) would produce: every combination
            # of per-component statistic sets is a global set S.
            "num_terms_without_component_factoring": literal_terms,
            "num_uncompressed_monomials": self.num_uncompressed_monomials,
            "num_range_entries": range_entries,
            "num_delta_entries": sum(
                int(component.stat_ids.size) for component in self.components
            ),
            "num_variables": sum(self.sizes) + self.num_deltas,
        }

    def component_of_position(self, pos: int) -> int | None:
        return self._component_of_position.get(pos)

    def component_of_stat(self, stat_id: int) -> int:
        try:
            return self._component_of_stat[stat_id]
        except KeyError:
            raise SolverError(
                f"multi-dimensional statistic {stat_id} is not part of any "
                "component"
            ) from None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def masked_alphas(
        self, params: ModelParameters, masks: Mapping[int, np.ndarray] | None
    ) -> list[np.ndarray]:
        """Apply Sec 4.2's optimization: excluded 1D variables become 0."""
        if not masks:
            return params.alphas
        out = []
        for pos, alpha in enumerate(params.alphas):
            mask = masks.get(pos)
            if mask is None:
                out.append(alpha)
            else:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape[0] != alpha.shape[0]:
                    raise SolverError(
                        f"mask for attribute {pos} has size {mask.shape[0]}, "
                        f"expected {alpha.shape[0]}"
                    )
                out.append(np.where(mask, alpha, 0.0))
        return out

    def evaluation_parts(
        self,
        params: ModelParameters,
        masks: Mapping[int, np.ndarray] | None = None,
    ) -> EvaluationParts:
        """Evaluate ``P`` and keep every intermediate factor."""
        alphas = self.masked_alphas(params, masks)
        prefixes = [
            np.concatenate([[0.0], np.cumsum(alpha, dtype=float)])
            for alpha in alphas
        ]
        full_sums = [float(prefix[-1]) for prefix in prefixes]

        range_sums: list[dict[int, np.ndarray]] = []
        range_products: list[np.ndarray] = []
        delta_products: list[np.ndarray] = []
        component_values: list[float] = []
        for component in self.components:
            sums = {}
            product = np.ones(component.num_terms, dtype=float)
            for pos in component.positions:
                prefix = prefixes[pos]
                sums[pos] = prefix[component.hi[pos] + 1] - prefix[component.lo[pos]]
                product = product * sums[pos]
            dprod = component.delta_products(params.deltas)
            range_sums.append(sums)
            range_products.append(product)
            delta_products.append(dprod)
            component_values.append(float(np.dot(product, dprod)))

        free_product = 1.0
        for pos in self.free_positions:
            free_product *= full_sums[pos]
        value = free_product
        for component_value in component_values:
            value *= component_value
        return EvaluationParts(
            prefixes,
            full_sums,
            range_sums,
            range_products,
            delta_products,
            component_values,
            free_product,
            value,
        )

    def evaluate(
        self,
        params: ModelParameters,
        masks: Mapping[int, np.ndarray] | None = None,
    ) -> float:
        """``P[α masked]`` — the quantity of Sec 4.2's query formula."""
        return self.evaluation_parts(params, masks).value

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def outer_products(self, parts: EvaluationParts) -> np.ndarray:
        """For each component ``c``: ``free_product × Π_{c'≠c} Q_{c'}``."""
        values = np.asarray(parts.component_values, dtype=float)
        if values.size == 0:
            return values
        return parts.free_product * product_excluding(values)

    def free_outer_product(self, parts: EvaluationParts, pos: int) -> float:
        """``Π_{p' free, p'≠pos} fullsum × Π_c Q_c`` for a free attribute."""
        others = [parts.full_sums[p] for p in self.free_positions if p != pos]
        product = 1.0
        for value in others:
            product *= value
        for component_value in parts.component_values:
            product *= component_value
        return product

    def attribute_gradient(
        self, parts: EvaluationParts, pos: int
    ) -> np.ndarray:
        """``∂P/∂α_{pos,v}`` for every value ``v`` of attribute ``pos``.

        By overcompleteness each monomial holds exactly one variable of
        the attribute, so this is also the coefficient vector of the
        linear expansion Eq. (7).
        """
        size = self.sizes[pos]
        component_index = self._component_of_position.get(pos)
        if component_index is None:
            return np.full(size, self.free_outer_product(parts, pos))
        component = self.components[component_index]
        sums = parts.range_sums[component_index]
        rows = [sums[p] for p in component.positions if p != pos]
        if rows:
            coeff = np.prod(np.stack(rows, axis=0), axis=0)
        else:
            coeff = np.ones(component.num_terms, dtype=float)
        coeff = coeff * parts.delta_products[component_index]
        diff = np.zeros(size + 1, dtype=float)
        np.add.at(diff, component.lo[pos], coeff)
        np.add.at(diff, component.hi[pos] + 1, -coeff)
        grad_q = np.cumsum(diff[:-1])
        outer = self.outer_products(parts)[component_index]
        return grad_q * outer

    def delta_gradient(self, parts: EvaluationParts, params: ModelParameters, stat_id: int) -> float:
        """``∂P/∂δ_{stat_id}`` — sum over the terms containing the
        statistic, with its ``(δ−1)`` factor removed."""
        component_index = self.component_of_stat(stat_id)
        component = self.components[component_index]
        terms = component.stat_terms.get(stat_id)
        if terms is None or terms.size == 0:
            return 0.0
        range_products = parts.range_products[component_index]
        deltas = params.deltas
        total = 0.0
        for term in terms.tolist():
            dprod = 1.0
            for other in component.term_stats[term]:
                if other != stat_id:
                    dprod *= deltas[other] - 1.0
            total += range_products[term] * dprod
        outer = self.outer_products(parts)[component_index]
        return total * outer

    # ------------------------------------------------------------------
    # Expected values (Eq. 8)
    # ------------------------------------------------------------------
    def expected_one_dim(
        self, parts: EvaluationParts, params: ModelParameters, total: int, pos: int
    ) -> np.ndarray:
        """``E[⟨c_j, I⟩] = n α_j P_αj / P`` for all 1D statistics of one
        attribute at once."""
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0; model is degenerate")
        gradient = self.attribute_gradient(parts, pos)
        return total * params.alphas[pos] * gradient / parts.value

    def expected_multi_dim(
        self, parts: EvaluationParts, params: ModelParameters, total: int, stat_id: int
    ) -> float:
        """``E[⟨c_j, I⟩]`` for one multi-dimensional statistic."""
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0; model is degenerate")
        gradient = self.delta_gradient(parts, params, stat_id)
        return total * float(params.deltas[stat_id]) * gradient / parts.value


def initial_parameters(polynomial: CompressedPolynomial) -> ModelParameters:
    """Fresh all-ones parameters shaped for the polynomial."""
    return ModelParameters.initial(polynomial.sizes, polynomial.num_deltas)


def check_parameter_shapes(
    polynomial: CompressedPolynomial, params: ModelParameters
) -> None:
    """Raise when parameters do not match the polynomial's shape."""
    expected = polynomial.sizes
    if len(params.alphas) != len(expected):
        raise SolverError(
            f"expected {len(expected)} alpha arrays, got {len(params.alphas)}"
        )
    for pos, (alpha, size) in enumerate(zip(params.alphas, expected)):
        if alpha.shape[0] != size:
            raise SolverError(
                f"alpha array for attribute {pos} has size {alpha.shape[0]}, "
                f"expected {size}"
            )
    if params.deltas.shape[0] != polynomial.num_deltas:
        raise SolverError(
            f"expected {polynomial.num_deltas} delta values, got "
            f"{params.deltas.shape[0]}"
        )
