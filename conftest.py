"""Repository-root pytest configuration.

Registers the analysis plugin: the ``@pytest.mark.determinism`` marker
(run twice, diff kernel event traces) and the ``protocol_monitor``
fixture (fail on LPDDR2-NVM conformance violations), and pytest's own
``pytester`` fixture, which the plugin's regression tests drive.
"""

pytest_plugins = ("repro.analysis.pytest_plugin", "pytester")
