"""
Exact-arithmetic cellular structures for degenerate cyclotomic Hecke
algebras: the normal-form algebra itself, four families of cellular bases
with cell modules and Gram forms, the crystal classifying the nonzero
simple labels, and the closed-form label correspondences between the
families, each certified by exact intertwiners.
"""

from .algebra import (
    AlgebraContext,
    Element,
    defining_relations,
    right_translate,
    star,
    trace_functional,
    trace_of_product,
    verify_basis,
)
from .cellular import (
    BasisFamily,
    CellModuleRealization,
    ModuleRealization,
    block_alpha,
    block_of,
    cell_module,
    cell_seed,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    intertwiner_dim,
    pi_bracket,
    pi_tilde_bracket,
    simple_module,
    simple_of,
    simples_table,
    x_lambda_c,
    y_lambda_c,
)
from .combinatorics import (
    Multipartition,
    Partition,
    Perm,
    Tableau,
    conjugate,
    conjugate_partition,
    d_of,
    dominance_ge,
    enumerate_multipartitions,
    partitions,
    row_reading_tableau,
    column_reading_tableau,
    rsk_insert,
    standard_tableaux,
    tableau_conjugate,
    tableau_dominance_ge,
    w_lambda,
)
from .crystal import (
    Window,
    ZeroOneTuple,
    component_of_empty,
    crystal_f,
    empty_label,
    gamma,
    nonzero_labels,
)
from .label_maps import (
    XiContext,
    A_of_lambda,
    base_tableau,
    eta,
    gamma_word,
    generalized_mullineux,
    is_standard,
    lambda_of_A,
    match_simples,
    mullineux_xi,
    r_map,
    xi_context,
)
from .serialization import (
    ConfigError,
    JobConfig,
    emit,
    emit_dot,
    parse_config,
)

__version__ = "0.1.0"
