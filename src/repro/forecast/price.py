"""Market-price prediction for strategic tenant bidding (paper Fig. 16).

The sensitivity study considers sprinting tenants that "bid with a
perfect knowledge of market price".  That case needs no predictor:
``SpotDCAllocator(oracle_rebid=True)`` feeds each provisional clearing
price straight back to the strategies.  What a real tenant can compute
is :class:`EwmaPricePredictor`, an exponentially weighted moving
average of the broadcast price history.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["EwmaPricePredictor"]


class EwmaPricePredictor:
    """EWMA over the broadcast price history.

    Args:
        alpha: Smoothing weight on the newest observation, in (0, 1].
            ``alpha=1`` is last-value prediction.
        skip_zero: Ignore zero-price slots (no market activity) so the
            estimate tracks the price *when a market exists*, which is
            what a bidding tenant cares about.
    """

    def __init__(self, alpha: float = 0.5, skip_zero: bool = True) -> None:
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.skip_zero = skip_zero
        self._estimate: float | None = None

    def observe(self, price: float) -> None:
        """Record a broadcast clearing price."""
        if price < 0:
            raise ConfigurationError(f"price must be >= 0, got {price}")
        if self.skip_zero and price == 0.0:
            return
        if self._estimate is None:
            self._estimate = price
        else:
            self._estimate = self.alpha * price + (1 - self.alpha) * self._estimate

    def predict(self) -> float | None:
        """Predicted next-slot price; ``None`` before any observation."""
        return self._estimate
