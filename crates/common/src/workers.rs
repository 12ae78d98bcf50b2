//! Worker-count selection shared by every parallel entry point.
//!
//! The experiment matrix (`run_matrix`) and the experiment service both
//! spread independent cells across worker threads.  They resolve how many
//! workers to spawn through one precedence chain instead of per-binary
//! ad-hoc logic:
//!
//! 1. an explicit override passed by the caller,
//! 2. the `LAD_THREADS` environment variable,
//! 3. the machine's available parallelism
//!    ([`std::thread::available_parallelism`], 1 when it cannot be
//!    determined).
//!
//! Every resolved count is clamped to at least one worker, and unparsable
//! `LAD_THREADS` values fall through to the machine's parallelism rather
//! than erroring: a worker count is a tuning knob, not a correctness input
//! (all matrix results are byte-identical at any thread count).

/// Environment variable consulted when no explicit override is given.
pub const THREADS_ENV: &str = "LAD_THREADS";

/// Resolves a worker count: `flag` if given, else `LAD_THREADS`, else the
/// machine's available parallelism (1 when that cannot be determined).
/// Always at least 1.
pub fn worker_count(flag: Option<usize>) -> usize {
    flag.or_else(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|value| value.trim().parse().ok())
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
    .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The LAD_THREADS-reading paths are exercised in a single test because
    // `cargo test` runs tests concurrently and the environment is
    // process-global.
    #[test]
    fn precedence_is_flag_then_env_then_default() {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);

        // Explicit overrides win outright and are clamped to >= 1.
        assert_eq!(worker_count(Some(6)), 6);
        assert_eq!(worker_count(Some(0)), 1);
        assert_eq!(worker_count(Some(3)), 3);

        std::env::remove_var(THREADS_ENV);
        assert_eq!(worker_count(None), machine);
        assert!(worker_count(None) >= 1);

        std::env::set_var(THREADS_ENV, "4");
        assert_eq!(worker_count(None), 4);
        // The flag still beats the environment.
        assert_eq!(worker_count(Some(2)), 2);

        // Garbage and zero env values fall back safely.
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(worker_count(None), machine);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(worker_count(None), 1);

        std::env::remove_var(THREADS_ENV);
    }
}
