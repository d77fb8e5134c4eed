"""Exception hierarchy for the bridge simulator."""


class BridgeSimError(Exception):
    """Base class for all simulator errors."""


# chain
class UnknownParent(BridgeSimError):
    pass


class UnknownBlock(BridgeSimError):
    pass


class NotIncluded(BridgeSimError):
    pass


# lightclient
class MalformedInput(BridgeSimError):
    pass


# txgraph
class UnknownId(BridgeSimError, KeyError):
    """No such template, functionary or VMXO in the packet; a KeyError too."""


class TooFewFunctionaries(BridgeSimError):
    pass


class PrematureDeletion(BridgeSimError):
    pass


class NotSameOperator(BridgeSimError):
    pass


class AlreadyClosed(BridgeSimError):
    pass


class SpendRejected(BridgeSimError):
    pass


# dispute
class DifficultyNotHigher(BridgeSimError):
    pass


class WrongPhase(BridgeSimError):
    pass


class WrongTurn(BridgeSimError):
    pass


class TimeoutExpired(BridgeSimError):
    pass


# stopwatch
class AlreadyRunning(BridgeSimError):
    pass


class NotRunning(BridgeSimError):
    pass


# protocol
class Insolvent(BridgeSimError, ValueError):
    """A negative transfer, or one its account cannot pay; a ValueError too."""


class NoCapacity(BridgeSimError):
    pass


class WrongDenomination(BridgeSimError):
    pass


class MissingSignature(BridgeSimError):
    pass


class InsufficientConfirmations(BridgeSimError):
    pass


class EnablerUnavailable(BridgeSimError):
    pass


class ConcurrencyLimit(BridgeSimError):
    pass


class NotLinked(BridgeSimError):
    pass


class NotTriggered(BridgeSimError):
    pass


# harness
class InvalidScenario(BridgeSimError):
    pass
