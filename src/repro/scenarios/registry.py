"""The scenario registry.

Scenarios are contributed as zero-argument *factories* returning a
:class:`~repro.scenarios.spec.ScenarioSpec`, registered with the
``@register`` decorator::

    from repro.scenarios.registry import register

    @register
    def my_scenario() -> ScenarioSpec:
        return ScenarioSpec(name="my-scenario", ...)

The default registry is module-level so the canonical catalog
(:mod:`repro.scenarios.catalog`), project-local scenario files and tests
all share one namespace; isolated registries can be created for testing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioRegistry", "REGISTRY", "register", "get_scenario"]

ScenarioFactory = Callable[[], ScenarioSpec]


class ScenarioRegistry:
    """A name → scenario-factory mapping with decorator-based registration."""

    def __init__(self) -> None:
        self._factories: Dict[str, ScenarioFactory] = {}

    def register(
        self, factory: Optional[ScenarioFactory] = None, *, name: Optional[str] = None
    ) -> Callable:
        """Register a scenario factory (usable bare or with ``name=…``).

        The factory is invoked once at registration to validate the spec
        and learn its name; later :meth:`get` calls invoke it again so every
        caller receives a fresh spec.
        """
        def _decorate(fn: ScenarioFactory) -> ScenarioFactory:
            spec = fn()
            if not isinstance(spec, ScenarioSpec):
                raise TypeError(
                    f"scenario factory {fn!r} must return a ScenarioSpec, "
                    f"got {type(spec)!r}"
                )
            key = name or spec.name
            if key != spec.name:
                raise ValueError(
                    f"registration name {key!r} does not match spec name "
                    f"{spec.name!r}"
                )
            if key in self._factories:
                raise ValueError(f"scenario {key!r} is already registered")
            self._factories[key] = fn
            return fn

        if factory is not None:
            return _decorate(factory)
        return _decorate

    def get(self, name: str) -> ScenarioSpec:
        """A fresh spec for the named scenario."""
        factory = self._factories.get(name)
        if factory is None:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise KeyError(f"unknown scenario {name!r}; registered: {known}")
        return factory()

    def names(self) -> List[str]:
        """Registered scenario names, sorted."""
        return sorted(self._factories)

    def items(self) -> Iterator[Tuple[str, ScenarioSpec]]:
        """``(name, spec)`` pairs in name order."""
        for name in self.names():
            yield name, self.get(name)


#: the process-wide default registry
REGISTRY = ScenarioRegistry()

#: decorator registering into the default registry
register = REGISTRY.register


def get_scenario(name: str) -> ScenarioSpec:
    """Fetch a scenario spec from the default registry."""
    return REGISTRY.get(name)
