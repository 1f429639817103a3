"""Opcode definitions for the miniature SPIR-V-like IR.

Every instruction in the IR is an :class:`~repro.ir.module.Instruction` whose
shape is described by an :class:`OpInfo` entry in :data:`OP_INFO`.  The operand
signature drives generic machinery used throughout the project:

* the validator checks operand counts and kinds,
* the binary codec encodes/decodes operands without per-opcode special cases,
* id remapping (used by function inlining and donor import) walks operands and
  rewrites exactly those that are ids.

The opcode set is the subset of SPIR-V that the paper's transformations
exercise, plus the structural opcodes needed to hold a module together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Op(enum.Enum):
    """Opcode mnemonics, named after their SPIR-V counterparts.

    Every member carries its :class:`OpInfo` as ``info`` (set below
    :data:`OP_INFO`).
    """

    info: "OpInfo"

    # Types.
    TypeVoid = "OpTypeVoid"
    TypeBool = "OpTypeBool"
    TypeInt = "OpTypeInt"
    TypeFloat = "OpTypeFloat"
    TypeVector = "OpTypeVector"
    TypeArray = "OpTypeArray"
    TypeStruct = "OpTypeStruct"
    TypePointer = "OpTypePointer"
    TypeFunction = "OpTypeFunction"

    # Constants.
    ConstantTrue = "OpConstantTrue"
    ConstantFalse = "OpConstantFalse"
    Constant = "OpConstant"
    ConstantComposite = "OpConstantComposite"
    Undef = "OpUndef"

    # Memory.
    Variable = "OpVariable"
    Load = "OpLoad"
    Store = "OpStore"
    AccessChain = "OpAccessChain"
    CopyObject = "OpCopyObject"

    # Integer arithmetic.
    IAdd = "OpIAdd"
    ISub = "OpISub"
    IMul = "OpIMul"
    SDiv = "OpSDiv"
    SRem = "OpSRem"
    SNegate = "OpSNegate"

    # Float arithmetic.
    FAdd = "OpFAdd"
    FSub = "OpFSub"
    FMul = "OpFMul"
    FDiv = "OpFDiv"
    FNegate = "OpFNegate"

    # Logical / comparison.
    LogicalAnd = "OpLogicalAnd"
    LogicalOr = "OpLogicalOr"
    LogicalNot = "OpLogicalNot"
    IEqual = "OpIEqual"
    INotEqual = "OpINotEqual"
    SLessThan = "OpSLessThan"
    SLessThanEqual = "OpSLessThanEqual"
    SGreaterThan = "OpSGreaterThan"
    SGreaterThanEqual = "OpSGreaterThanEqual"
    FOrdEqual = "OpFOrdEqual"
    FOrdNotEqual = "OpFOrdNotEqual"
    FOrdLessThan = "OpFOrdLessThan"
    FOrdLessThanEqual = "OpFOrdLessThanEqual"
    FOrdGreaterThan = "OpFOrdGreaterThan"
    FOrdGreaterThanEqual = "OpFOrdGreaterThanEqual"
    Select = "OpSelect"

    # Composites.
    CompositeConstruct = "OpCompositeConstruct"
    CompositeExtract = "OpCompositeExtract"
    CompositeInsert = "OpCompositeInsert"

    # Conversions.
    ConvertSToF = "OpConvertSToF"
    ConvertFToS = "OpConvertFToS"

    # Control flow.
    Phi = "OpPhi"
    Branch = "OpBranch"
    BranchConditional = "OpBranchConditional"
    Return = "OpReturn"
    ReturnValue = "OpReturnValue"
    Kill = "OpKill"
    Unreachable = "OpUnreachable"
    FunctionCall = "OpFunctionCall"

    # Structure.
    Function = "OpFunction"
    FunctionParameter = "OpFunctionParameter"
    Label = "OpLabel"
    FunctionEnd = "OpFunctionEnd"
    EntryPoint = "OpEntryPoint"
    Name = "OpName"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class OperandKind(enum.Enum):
    """Kind of a single operand slot in an instruction signature."""

    ID = "id"  # exactly one id
    LITERAL = "lit"  # exactly one literal (int, float, bool or str)
    ID_REST = "ids"  # zero or more ids; must be the final slot
    LITERAL_REST = "lits"  # zero or more literals; must be the final slot
    PHI_REST = "phi"  # (value id, predecessor block id) pairs, flattened
    OPTIONAL_ID = "opt_id"  # zero or one id; must be the final slot


_REST_KINDS = {
    OperandKind.ID_REST,
    OperandKind.LITERAL_REST,
    OperandKind.PHI_REST,
    OperandKind.OPTIONAL_ID,
}


@dataclass(frozen=True)
class OpInfo:
    """Static description of an opcode's shape."""

    op: "Op"
    operands: tuple[OperandKind, ...]
    has_result: bool
    has_type: bool
    is_terminator: bool = False

    def __post_init__(self) -> None:
        for kind in self.operands[:-1]:
            if kind in _REST_KINDS:
                raise ValueError(f"{self.op}: rest operand must be last")

    @property
    def is_type_decl(self) -> bool:
        return self.op.value.startswith("OpType")

    @property
    def is_constant_decl(self) -> bool:
        return self.op in (
            Op.ConstantTrue,
            Op.ConstantFalse,
            Op.Constant,
            Op.ConstantComposite,
            Op.Undef,
        )


_K = OperandKind


def _info(
    op: Op,
    operands: tuple[OperandKind, ...],
    *,
    result: bool,
    typed: bool,
    terminator: bool = False,
) -> tuple[Op, OpInfo]:
    return op, OpInfo(op, operands, result, typed, terminator)


OP_INFO: dict[Op, OpInfo] = dict(
    [
        # Types: result id, no result-type id.
        _info(Op.TypeVoid, (), result=True, typed=False),
        _info(Op.TypeBool, (), result=True, typed=False),
        _info(Op.TypeInt, (_K.LITERAL, _K.LITERAL), result=True, typed=False),
        _info(Op.TypeFloat, (_K.LITERAL,), result=True, typed=False),
        _info(Op.TypeVector, (_K.ID, _K.LITERAL), result=True, typed=False),
        _info(Op.TypeArray, (_K.ID, _K.LITERAL), result=True, typed=False),
        _info(Op.TypeStruct, (_K.ID_REST,), result=True, typed=False),
        _info(Op.TypePointer, (_K.LITERAL, _K.ID), result=True, typed=False),
        _info(Op.TypeFunction, (_K.ID, _K.ID_REST), result=True, typed=False),
        # Constants.
        _info(Op.ConstantTrue, (), result=True, typed=True),
        _info(Op.ConstantFalse, (), result=True, typed=True),
        _info(Op.Constant, (_K.LITERAL,), result=True, typed=True),
        _info(Op.ConstantComposite, (_K.ID_REST,), result=True, typed=True),
        _info(Op.Undef, (), result=True, typed=True),
        # Memory.
        _info(Op.Variable, (_K.LITERAL, _K.OPTIONAL_ID), result=True, typed=True),
        _info(Op.Load, (_K.ID,), result=True, typed=True),
        _info(Op.Store, (_K.ID, _K.ID), result=False, typed=False),
        _info(Op.AccessChain, (_K.ID, _K.ID_REST), result=True, typed=True),
        _info(Op.CopyObject, (_K.ID,), result=True, typed=True),
        # Integer arithmetic.
        _info(Op.IAdd, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.ISub, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.IMul, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SDiv, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SRem, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SNegate, (_K.ID,), result=True, typed=True),
        # Float arithmetic.
        _info(Op.FAdd, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FSub, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FMul, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FDiv, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FNegate, (_K.ID,), result=True, typed=True),
        # Logical / comparison.
        _info(Op.LogicalAnd, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.LogicalOr, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.LogicalNot, (_K.ID,), result=True, typed=True),
        _info(Op.IEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.INotEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SLessThan, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SLessThanEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SGreaterThan, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.SGreaterThanEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdNotEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdLessThan, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdLessThanEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdGreaterThan, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.FOrdGreaterThanEqual, (_K.ID, _K.ID), result=True, typed=True),
        _info(Op.Select, (_K.ID, _K.ID, _K.ID), result=True, typed=True),
        # Composites.
        _info(Op.CompositeConstruct, (_K.ID_REST,), result=True, typed=True),
        _info(Op.CompositeExtract, (_K.ID, _K.LITERAL_REST), result=True, typed=True),
        _info(
            Op.CompositeInsert, (_K.ID, _K.ID, _K.LITERAL_REST), result=True, typed=True
        ),
        # Conversions.
        _info(Op.ConvertSToF, (_K.ID,), result=True, typed=True),
        _info(Op.ConvertFToS, (_K.ID,), result=True, typed=True),
        # Control flow.
        _info(Op.Phi, (_K.PHI_REST,), result=True, typed=True),
        _info(Op.Branch, (_K.ID,), result=False, typed=False, terminator=True),
        _info(
            Op.BranchConditional,
            (_K.ID, _K.ID, _K.ID),
            result=False,
            typed=False,
            terminator=True,
        ),
        _info(Op.Return, (), result=False, typed=False, terminator=True),
        _info(Op.ReturnValue, (_K.ID,), result=False, typed=False, terminator=True),
        _info(Op.Kill, (), result=False, typed=False, terminator=True),
        _info(Op.Unreachable, (), result=False, typed=False, terminator=True),
        _info(Op.FunctionCall, (_K.ID, _K.ID_REST), result=True, typed=True),
        # Structure.
        _info(Op.Function, (_K.LITERAL, _K.ID), result=True, typed=True),
        _info(Op.FunctionParameter, (), result=True, typed=True),
        _info(Op.Label, (), result=True, typed=False),
        _info(Op.FunctionEnd, (), result=False, typed=False),
        _info(Op.EntryPoint, (_K.LITERAL, _K.ID), result=False, typed=False),
        _info(Op.Name, (_K.ID, _K.LITERAL), result=False, typed=False),
    ]
)


for _op, _op_info in OP_INFO.items():
    # Slotted on the member: ``op.info`` is an attribute read, where
    # ``OP_INFO[op]`` pays a Python-level ``Enum.__hash__`` per lookup.
    _op.info = _op_info

OP_BY_NAME: dict[str, Op] = {op.value: op for op in Op}

#: Function-control literal values accepted on OpFunction, after SPIR-V.
FUNCTION_CONTROL_NONE = "None"
FUNCTION_CONTROL_INLINE = "Inline"
FUNCTION_CONTROL_DONT_INLINE = "DontInline"
FUNCTION_CONTROLS = (
    FUNCTION_CONTROL_NONE,
    FUNCTION_CONTROL_INLINE,
    FUNCTION_CONTROL_DONT_INLINE,
)

#: Commutative binary opcodes (used by operand-swapping transformations).
COMMUTATIVE_OPS = frozenset(
    {
        Op.IAdd,
        Op.IMul,
        Op.FAdd,
        Op.FMul,
        Op.LogicalAnd,
        Op.LogicalOr,
        Op.IEqual,
        Op.INotEqual,
        Op.FOrdEqual,
        Op.FOrdNotEqual,
    }
)

#: Opcodes whose results depend only on their operands (no memory, no control),
#: safe to move subject to availability of operands.
PURE_OPS = frozenset(
    {
        Op.IAdd,
        Op.ISub,
        Op.IMul,
        Op.SNegate,
        Op.FAdd,
        Op.FSub,
        Op.FMul,
        Op.FNegate,
        Op.LogicalAnd,
        Op.LogicalOr,
        Op.LogicalNot,
        Op.IEqual,
        Op.INotEqual,
        Op.SLessThan,
        Op.SLessThanEqual,
        Op.SGreaterThan,
        Op.SGreaterThanEqual,
        Op.FOrdEqual,
        Op.FOrdNotEqual,
        Op.FOrdLessThan,
        Op.FOrdLessThanEqual,
        Op.FOrdGreaterThan,
        Op.FOrdGreaterThanEqual,
        Op.Select,
        Op.CompositeConstruct,
        Op.CompositeExtract,
        Op.CompositeInsert,
        Op.ConvertSToF,
        Op.ConvertFToS,
        Op.CopyObject,
    }
)

#: Pure opcodes that can fault at runtime (division by zero) and therefore must
#: not be speculated or hoisted past control flow.
TRAPPING_OPS = frozenset({Op.SDiv, Op.SRem})


def op_info(op: Op) -> OpInfo:
    """Return the :class:`OpInfo` for *op*.

    Reads the metadata slotted on the member (``op.info``), the same object
    :data:`OP_INFO` holds; hot loops may read ``op.info`` directly.  The
    attribute leaves ``Op``'s hash (the enum default) alone, so code that
    iterates sets of opcodes sees an unchanged order.
    """
    return op.info
