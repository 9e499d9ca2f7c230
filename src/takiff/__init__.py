"""Exact highest-weight theory for the Takiff algebra sl2[x]/(x^2).

The package computes, over exact rationals: PBW normal forms in the
universal envelope, the quadratic central element, depth-truncated Verma and
simple highest-weight modules with explicit action matrices, characters and
composition multiplicities, submodule generation / quotients / Hasse
diagrams, uniserial filtrations of the quotients Delta/K_n, blocks, Ext^1
between simples in the strict and relaxed highest-weight categories, and the
resulting Gabriel quivers (DOT output).
"""

from .algebra import (E, EBAR, F, FBAR, H, HBAR, GENERATORS, GEN_NAMES,
                      EnvelopingElement, lie_bracket, straighten_word,
                      casimir)
from .modules import (Weight, Character, TruncatedModule, verma,
                      simple_module, simple_dims, character, dualize,
                      check_relations, casimir_action, casimir_scalar,
                      category_check, module_to_json)
from .structure import (singular_vectors, submodule, quotient,
                        multiplicities, mn_filtration, hasse_diagram,
                        SubmodulePoset)
from .ext import (block_of, same_block, Block, ext1, stabilize_ext,
                  assemble_extension, ExtResult, StabilizationError,
                  quiver, Quiver)

__version__ = "0.1.0"
