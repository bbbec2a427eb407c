"""Exception types shared across the analyzer."""


class MtirError(Exception):
    """Base class for all analyzer errors."""


class MtirSyntaxError(MtirError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DuplicateGlobalError(MtirError):
    pass


class UnknownRoutineError(MtirError):
    pass


class ModelError(MtirError):
    """A structurally invalid program model."""


class RecursiveCreateError(ModelError):
    pass


class CreateInLoopError(ModelError):
    pass


class JoinWithoutCreateError(ModelError):
    pass


class UnknownVariableError(MtirError):
    """Internal invariant violation: expression references an unbound name."""


class AnalysisBudgetExceeded(MtirError):
    pass


class CombinationBudgetExceeded(MtirError):
    pass


class OracleBudgetExceeded(MtirError):
    pass
