//! Worker-count selection for the sweep runner.

use crate::cli::CliError;

/// How many worker threads a sweep may use.
///
/// Resolution order for [`Jobs::from_env`]: the `ACCESYS_JOBS`
/// environment variable if set and positive, otherwise every available
/// core. Binaries additionally accept `--jobs N` / `-j N`, which
/// overrides the environment.
///
/// ```
/// use accesys_exp::Jobs;
///
/// assert_eq!(Jobs::serial().get(), 1);
/// assert_eq!(Jobs::new(8).get(), 8);
/// assert!(Jobs::auto().get() >= 1);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (`n = 0` is clamped to 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// One worker: run every point on the calling thread.
    pub fn serial() -> Jobs {
        Jobs(1)
    }

    /// One worker per available core.
    pub fn auto() -> Jobs {
        Jobs(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// `ACCESYS_JOBS` if set, else [`Jobs::auto`].
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadJobsEnv`] if `ACCESYS_JOBS` is set to
    /// anything but a positive integer — the same strictness as the
    /// `--jobs` flag, so the two knobs never silently disagree on bad
    /// input.
    pub fn from_env() -> Result<Jobs, CliError> {
        let Some(value) = std::env::var_os("ACCESYS_JOBS") else {
            return Ok(Jobs::auto());
        };
        let value = value.to_string_lossy();
        match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Jobs(n)),
            _ => Err(CliError::BadJobsEnv(value.into_owned())),
        }
    }

    /// The worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_clamped_to_one() {
        assert_eq!(Jobs::new(0).get(), 1);
    }

    #[test]
    fn auto_is_positive() {
        assert!(Jobs::auto().get() >= 1);
    }
}
