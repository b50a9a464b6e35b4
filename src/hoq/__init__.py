"""hoq: type algebra and numerical membership checks for higher-order quantum maps."""

from hoq.type_ast import (
    Arrow,
    Atom,
    Elementary,
    TypeExpr,
    bar,
    factor_dims,
    make_comb,
    parse_type,
    print_canonical,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "Atom",
    "Elementary",
    "TypeExpr",
    "bar",
    "factor_dims",
    "make_comb",
    "parse_type",
    "print_canonical",
    "tensor",
    "__version__",
]
