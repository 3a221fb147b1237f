"""Session set-up shared by the test modules."""
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# At collection, hypothesis caches the constants it reads from the package's
# source files on disk, even with database=None. Keep that cache out of the
# checkout; the directory is removed when the session ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
