"""Test-only fusion oracles, shared by the fusion and acceptance tests."""

from lvef_fusion.fusion import InstrumentSigma, _check_lvef, precision_ratio


def theta_map(visual: float, simpson: float, sigmas: InstrumentSigma) -> float:
    """Posterior mode via the precision-ratio form (omega*S + V)/(omega + 1).

    Algebraically identical to fuse(...).theta; kept separate because the two
    routes are checked against each other.
    """
    _check_lvef("visual", visual)
    _check_lvef("simpson", simpson)
    omega = precision_ratio(sigmas)
    return (omega * simpson + visual) / (omega + 1.0)
