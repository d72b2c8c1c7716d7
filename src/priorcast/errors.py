"""Exception types shared across the package.

Input is checked once, where it enters: the config file and flags when
they are parsed, the dataset when it is loaded (and against the config
right after), and each prior or checkpoint file when a stage reads it.
Those checks raise ConfigError or FormatError, and the kernels behind them
trust their arguments. The CLI maps these onto exit codes: ConfigError ->
2, FormatError and OSError -> 3, NumericError -> 4. Any other exception,
ValueError included, is a bug: the CLI lets it end the run with a
traceback and exit code 1.
"""


class ConfigError(ValueError):
    """Invalid configuration value or combination of flags."""


class FormatError(ValueError):
    """Malformed file content: bad magic, truncated payload, schema violation."""


class NumericError(RuntimeError):
    """A numerical routine failed to produce a usable result."""
