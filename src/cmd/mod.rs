//! The subcommands behind [`crate::cli::COMMANDS`].

pub(crate) mod chaos;
pub(crate) mod dynamic_paths;
pub(crate) mod fleet;
pub(crate) mod multiflow;
pub(crate) mod paper;
pub(crate) mod studies;
pub(crate) mod verify;
