"""Exception hierarchy.

MathRefusal covers "the mathematics says no" outcomes (CLI exit code 2);
everything else under TiltlabError is a tool/usage failure (exit code 1).
"""


class TiltlabError(Exception):
    pass


class MathRefusal(TiltlabError):
    pass


# algebra construction
class NonAdmissible(TiltlabError):
    pass


class MalformedRelation(TiltlabError):
    pass


# representations
class RelationViolated(TiltlabError):
    pass


class AlgebraMismatch(TiltlabError):
    pass


class SearchExhausted(TiltlabError):
    pass


class LocalityUndecided(TiltlabError):
    pass


# homology
class NotBasic(TiltlabError):
    def __init__(self, message, multiplicities=None):
        super().__init__(message)
        self.multiplicities = multiplicities


class InfiniteGlobalDimension(TiltlabError):
    pass


# tilting
class NotTilting(MathRefusal):
    def __init__(self, axiom, witness=None):
        super().__init__(f"not a tilting module: axiom {axiom} fails")
        self.axiom = axiom
        self.witness = witness


class NotSequentiallyStatic(MathRefusal):
    def __init__(self, witness=None):
        super().__init__("module is not sequentially static")
        self.witness = witness


class WitnessSearchExhausted(TiltlabError):
    pass


class ModeUnsupported(TiltlabError):
    pass


class InternalInconsistency(TiltlabError):
    pass


# cli
class ParseError(TiltlabError):
    def __init__(self, line, column, message):
        super().__init__(f"parse error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(TiltlabError):
    pass
