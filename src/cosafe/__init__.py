"""Coalgebraic safety checking with knowledge reuse up to precongruence,
and attacker quantification by sets of violated safety properties."""

from .attacker import (Attack, Attacker, CapabilityReport, apply_attack,
                       capabilities, compare, hasse_dot, hierarchy)
from .closure import (BOTH, EQUIVARIANT, IMAGE, LITERAL, PRESERVING,
                      REFLECTING, AlgebraicOperator, ClosureConfig,
                      ClosureEngine, KnowledgeBase)
from .coalgebra import System, behaviour_system, iterate
from .formula import (ASSERT, REFUTE, TABLE, FormulaTable, Property,
                      formula_similarity)
from .predicate import (BoolSpace, Complement, Empty, FiniteSet, FiniteSpace,
                        Interval, LinearLink, Product, ProductSpace,
                        ScaledLine, SpaceMismatch, Undecidable, Universe,
                        complement, intersect, member, subset)
from .verify import (FAILS, HOLDS, INFERRED_FAILS, INFERRED_HOLDS, UNKNOWN,
                     Stats, Verdict, check_many, check_property,
                     order_properties, verify)

__version__ = "0.1.0"
