"""Exception hierarchy shared by all frey2 modules."""


class Frey2Error(Exception):
    """Base class for all errors raised by this package."""


class ZeroInput(Frey2Error, ValueError):
    """Both resultant operands (or a discriminant input) were zero."""


class ZeroElement(Frey2Error, ValueError):
    """Valuation of zero requested."""


class DivisionByZero(Frey2Error, ZeroDivisionError):
    pass


class InexactDivision(Frey2Error, ArithmeticError):
    """Exact division failed: the quotient left a remainder."""


class NonIntegralCoefficient(Frey2Error, ValueError):
    """Coefficient has negative 2-adic valuation where integrality is required."""


class NonIntegral(NonIntegralCoefficient):
    """Local element has a term of negative valuation."""


class ValuationAmbiguous(Frey2Error, ArithmeticError):
    """Two terms tie for the minimal valuation at some weight >= the least weight."""


class DegreeViolation(Frey2Error, ValueError):
    """Hyperelliptic degree window 2g+1 <= max(2 deg Q, deg P) <= 2g+2 broken."""


class SingularChange(Frey2Error, ValueError):
    """Change of variables with ad - bc = 0 or e = 0."""


class NotOddPrime(Frey2Error, ValueError):
    pass


class DegenerateParameter(Frey2Error, ValueError):
    """Parameter value where the family discriminant vanishes (t in {0,1} etc.)."""


class PipelineAssertionFailed(Frey2Error, AssertionError):
    """A reduction pipeline could not certify one of its stated conclusions."""


class HypothesisViolated(Frey2Error, ValueError):
    """Valuation hypothesis v(z^r) >= v(s^2) + 4 does not hold."""


class NotCovered(Frey2Error, ValueError):
    """Parameter outside the valuation range any statement covers."""


class FieldTooLarge(Frey2Error, ValueError):
    """Needed extension of GF(2) exceeds the supported size 2^16."""
