//! Shared `PALM_*` environment configuration for the network binaries.
//!
//! `palm-server` and `palm-coord` read the same knobs; this module parses
//! them **once** and, unlike the old per-binary helpers, *reports* an
//! unparseable value instead of silently falling back to the default —
//! an operator who typoes `PALM_MAX_IN_FLIGHT=6４` should get an error,
//! not a server quietly running at 64.
//!
//! | variable                   | default       | meaning                          |
//! |----------------------------|---------------|----------------------------------|
//! | `PALM_ADDR`                | `127.0.0.1:0` | bind address (`:0` = free port)  |
//! | `PALM_MAX_IN_FLIGHT`       | `64`          | admission: concurrent requests   |
//! | `PALM_MAX_QUEUED_BYTES`    | `67108864`    | admission: queued payload bytes  |
//! | `PALM_MAX_FRAME_BYTES`     | `16777216`    | per-frame size cap               |
//! | `PALM_DEFAULT_DEADLINE_MS` | none          | server-wide request deadline     |
//! | `PALM_RETRY_AFTER_MS`      | `25`          | retry hint on `overloaded` sheds |
//! | `PALM_DRAIN_MS`            | `5000`        | shutdown drain deadline          |
//! | `PALM_WORK_DIR`            | temp dir      | index file directory (server)    |
//! | `PALM_CACHE_ENTRIES`       | `1024`        | result cache: at most n recorded |
//! |                            |               | query replies (server; 0 = off)  |
//! | `PALM_WORKERS`             | —             | comma-separated shard addresses  |
//! |                            |               | (coordinator; required)          |

use std::path::PathBuf;
use std::time::Duration;

use crate::server::ServerConfig;

/// A rejected environment variable: which one and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending variable name, e.g. `PALM_MAX_IN_FLIGHT`.
    pub variable: String,
    /// What was wrong with its value.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.variable, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn reject(variable: &str, message: impl Into<String>) -> ConfigError {
    ConfigError {
        variable: variable.to_string(),
        message: message.into(),
    }
}

/// Reads `name` from the environment; `Ok(None)` when unset, `Err` when
/// set but not a `T`.
fn parsed<T: std::str::FromStr>(name: &str) -> Result<Option<T>, ConfigError> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| reject(name, format!("cannot parse {raw:?}"))),
    }
}

/// The [`ServerConfig`] knobs shared by every `PALM_*`-configured binary.
pub fn server_config_from_env() -> Result<ServerConfig, ConfigError> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        addr: std::env::var("PALM_ADDR").unwrap_or(defaults.addr),
        max_in_flight: parsed("PALM_MAX_IN_FLIGHT")?.unwrap_or(defaults.max_in_flight),
        max_queued_bytes: parsed("PALM_MAX_QUEUED_BYTES")?.unwrap_or(defaults.max_queued_bytes),
        max_frame_bytes: parsed("PALM_MAX_FRAME_BYTES")?.unwrap_or(defaults.max_frame_bytes),
        default_deadline_ms: parsed("PALM_DEFAULT_DEADLINE_MS")?,
        retry_after_ms: parsed("PALM_RETRY_AFTER_MS")?.unwrap_or(defaults.retry_after_ms),
        drain_deadline: parsed("PALM_DRAIN_MS")?
            .map(Duration::from_millis)
            .unwrap_or(defaults.drain_deadline),
        read_poll: defaults.read_poll,
    })
}

/// Everything `palm-server` reads from the environment.
#[derive(Debug)]
pub struct ServerEnv {
    /// Front-end knobs (bind address, admission, deadlines).
    pub config: ServerConfig,
    /// Index file directory (`PALM_WORK_DIR`, default: a per-pid temp dir).
    pub work_dir: PathBuf,
    /// Result cache capacity (`PALM_CACHE_ENTRIES`, `0` disables).
    pub cache_entries: usize,
}

/// Parses the `palm-server` environment.
pub fn server_env() -> Result<ServerEnv, ConfigError> {
    Ok(ServerEnv {
        config: server_config_from_env()?,
        work_dir: std::env::var("PALM_WORK_DIR")
            .map(Into::into)
            .unwrap_or_else(|_| {
                std::env::temp_dir().join(format!("palm-server-{}", std::process::id()))
            }),
        cache_entries: parsed("PALM_CACHE_ENTRIES")?.unwrap_or(1024),
    })
}

/// Everything `palm-coord` reads from the environment.
#[derive(Debug)]
pub struct CoordEnv {
    /// Front-end knobs for the coordinator's own listener.
    pub config: ServerConfig,
    /// Worker addresses, one shard each, in shard order
    /// (`PALM_WORKERS=host:port,host:port,...`; required, non-empty).
    pub workers: Vec<String>,
}

/// Parses the `palm-coord` environment.
pub fn coord_env() -> Result<CoordEnv, ConfigError> {
    let raw = std::env::var("PALM_WORKERS")
        .map_err(|_| reject("PALM_WORKERS", "required: comma-separated worker addresses"))?;
    let workers: Vec<String> = raw
        .split(',')
        .map(|addr| addr.trim().to_string())
        .filter(|addr| !addr.is_empty())
        .collect();
    if workers.is_empty() {
        return Err(reject("PALM_WORKERS", "no worker addresses given"));
    }
    Ok(CoordEnv {
        config: server_config_from_env()?,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state, so each uses its own variable
    // and restores it; the suite runs threaded, hence distinct names.

    #[test]
    fn unset_variables_fall_back_to_defaults() {
        std::env::remove_var("PALM_MAX_IN_FLIGHT_TEST_UNSET");
        let config = server_config_from_env().unwrap();
        let defaults = ServerConfig::default();
        assert_eq!(config.retry_after_ms, defaults.retry_after_ms);
        assert_eq!(config.max_frame_bytes, defaults.max_frame_bytes);
    }

    #[test]
    fn invalid_value_is_reported_not_defaulted() {
        let err = parsed::<usize>("PALM_CONFIG_TEST_BAD_VALUE").unwrap();
        assert!(err.is_none());
        std::env::set_var("PALM_CONFIG_TEST_BAD_VALUE", "not-a-number");
        let err = parsed::<usize>("PALM_CONFIG_TEST_BAD_VALUE").unwrap_err();
        assert_eq!(err.variable, "PALM_CONFIG_TEST_BAD_VALUE");
        assert!(err.message.contains("not-a-number"), "{err}");
        std::env::remove_var("PALM_CONFIG_TEST_BAD_VALUE");
    }

    #[test]
    fn worker_list_parses_and_requires_entries() {
        std::env::set_var("PALM_WORKERS", " a:1 , b:2,, c:3 ");
        let env = coord_env().unwrap();
        assert_eq!(env.workers, vec!["a:1", "b:2", "c:3"]);
        std::env::set_var("PALM_WORKERS", " , ");
        assert!(coord_env().is_err());
        std::env::remove_var("PALM_WORKERS");
    }
}
