//! Deterministic encoded-frame generation.
//!
//! The paper's methodology plays the same scripted 10-minute Ys VIII
//! session on every run so that gameplay — and hence encoded video — is
//! comparable across runs and systems. [`FrameSource`] gives the simulation
//! the same property: a seeded process produces the identical frame-size
//! sequence for the identical seed, with the structure of a real game
//! encoder:
//!
//! * a frame every 1/fps seconds,
//! * a key (intra-coded) frame every `gop` frames, `key_scale`× larger,
//! * delta frames log-normally jittered around the budget (scene motion),
//! * a slow sinusoidal scene-complexity modulation (walking between calm
//!   and busy areas of the map).
//!
//! Frame sizes track a *target bitrate* supplied per frame by the encoder's
//! rate controller, so the source follows bitrate adaptation immediately —
//! commercial encoders re-quantize within a frame or two.

use gsrepro_simcore::rng::rng_for;
use gsrepro_simcore::{BitRate, Bytes, SimRng};
use rand::Rng;

/// Configuration of the synthetic encoder output.
#[derive(Clone, Debug)]
pub struct FrameSourceConfig {
    /// Frames per second produced by the encoder (the paper's systems all
    /// target 60 f/s).
    pub fps: u32,
    /// Frames per group-of-pictures (key-frame period). 120 = one key frame
    /// every 2 s at 60 f/s.
    pub gop: u32,
    /// Key frames are this many times the size of the average delta frame.
    pub key_scale: f64,
    /// Standard deviation of per-frame size jitter, as a fraction of the
    /// frame budget.
    pub jitter: f64,
    /// Amplitude of the slow scene-complexity sine, as a fraction (0.05 =
    /// ±5%).
    pub scene_amplitude: f64,
    /// Period of the scene-complexity sine, in frames.
    pub scene_period: u32,
}

impl Default for FrameSourceConfig {
    fn default() -> Self {
        FrameSourceConfig {
            fps: 60,
            gop: 120,
            key_scale: 2.5,
            jitter: 0.10,
            scene_amplitude: 0.06,
            scene_period: 600, // 10 s at 60 f/s
        }
    }
}

/// One encoded frame, ready for packetization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic frame number.
    pub id: u64,
    /// Encoded size.
    pub size: Bytes,
    /// Whether this is an intra-coded (key) frame.
    pub key: bool,
}

/// Deterministic frame generator.
pub struct FrameSource {
    cfg: FrameSourceConfig,
    rng: SimRng,
    next_id: u64,
    /// Normalization so that the long-run mean of (key + delta) sizes hits
    /// the bitrate budget exactly.
    delta_norm: f64,
}

impl FrameSource {
    /// New source; `seed`/`stream` select the deterministic jitter stream.
    pub fn new(cfg: FrameSourceConfig, seed: u64, stream: u64) -> Self {
        // Per GOP: 1 key frame of key_scale·d + (gop−1) delta frames of d,
        // where d = budget·gop / (key_scale + gop − 1).
        let g = cfg.gop as f64;
        let delta_norm = g / (cfg.key_scale + g - 1.0);
        FrameSource {
            cfg,
            rng: rng_for(seed, stream),
            next_id: 0,
            delta_norm,
        }
    }

    /// Frame interval at the nominal frame rate.
    pub fn interval(&self) -> gsrepro_simcore::SimDuration {
        gsrepro_simcore::SimDuration::from_nanos(1_000_000_000 / self.cfg.fps.max(1) as u64)
    }

    /// Nominal frames per second.
    pub fn fps(&self) -> u32 {
        self.cfg.fps
    }

    /// Produce the next frame, sized against `target` bitrate at the
    /// nominal frame rate.
    pub fn next_frame(&mut self, target: BitRate) -> Frame {
        let id = self.next_id;
        self.next_id += 1;

        let budget = target.as_bps() as f64 / 8.0 / self.cfg.fps.max(1) as f64;
        let key = id.is_multiple_of(self.cfg.gop as u64);
        let base = if key {
            budget * self.delta_norm * self.cfg.key_scale
        } else {
            budget * self.delta_norm
        };

        // Scene-complexity modulation: deterministic in frame id.
        let phase = (id % self.cfg.scene_period as u64) as f64 / self.cfg.scene_period as f64;
        let scene = 1.0 + self.cfg.scene_amplitude * (phase * std::f64::consts::TAU).sin();

        // Per-frame jitter, clamped to avoid pathological outliers.
        let j: f64 = 1.0 + self.cfg.jitter * self.rng.gen_range(-1.73..1.73); // uniform, sd≈jitter
        let j = j.clamp(0.5, 1.8);

        let size = (base * scene * j).round().max(200.0) as u64;
        Frame {
            id,
            size: Bytes(size),
            key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_simcore::SimDuration;

    #[test]
    fn determinism() {
        let mut a = FrameSource::new(FrameSourceConfig::default(), 1, 2);
        let mut b = FrameSource::new(FrameSourceConfig::default(), 1, 2);
        for _ in 0..1000 {
            assert_eq!(
                a.next_frame(BitRate::from_mbps(20)),
                b.next_frame(BitRate::from_mbps(20))
            );
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = FrameSource::new(FrameSourceConfig::default(), 1, 2);
        let mut b = FrameSource::new(FrameSourceConfig::default(), 1, 3);
        let fa: Vec<_> = (0..100)
            .map(|_| a.next_frame(BitRate::from_mbps(20)).size)
            .collect();
        let fb: Vec<_> = (0..100)
            .map(|_| b.next_frame(BitRate::from_mbps(20)).size)
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn long_run_mean_tracks_target() {
        let mut src = FrameSource::new(FrameSourceConfig::default(), 7, 0);
        let target = BitRate::from_mbps(24);
        let n = 6_000; // 100 s at 60 f/s
        let total: u64 = (0..n).map(|_| src.next_frame(target).size.as_u64()).sum();
        let secs = n as f64 / 60.0;
        let mbps = total as f64 * 8.0 / secs / 1e6;
        assert!(
            (mbps - 24.0).abs() < 0.7,
            "long-run rate {mbps} should track 24 Mb/s"
        );
    }

    #[test]
    fn key_frames_every_gop() {
        let mut src = FrameSource::new(FrameSourceConfig::default(), 7, 0);
        let mut key_ids = vec![];
        for _ in 0..400 {
            let f = src.next_frame(BitRate::from_mbps(20));
            if f.key {
                key_ids.push(f.id);
            }
        }
        assert_eq!(key_ids, vec![0, 120, 240, 360]);
    }

    #[test]
    fn key_frames_are_larger() {
        let mut src = FrameSource::new(FrameSourceConfig::default(), 9, 0);
        let mut key_sum = 0u64;
        let mut key_n = 0u64;
        let mut delta_sum = 0u64;
        let mut delta_n = 0u64;
        for _ in 0..1200 {
            let f = src.next_frame(BitRate::from_mbps(20));
            if f.key {
                key_sum += f.size.as_u64();
                key_n += 1;
            } else {
                delta_sum += f.size.as_u64();
                delta_n += 1;
            }
        }
        let key_avg = key_sum as f64 / key_n as f64;
        let delta_avg = delta_sum as f64 / delta_n as f64;
        assert!(
            key_avg / delta_avg > 2.0,
            "key {key_avg} vs delta {delta_avg}"
        );
    }

    #[test]
    fn rate_changes_apply_immediately() {
        let mut src = FrameSource::new(FrameSourceConfig::default(), 11, 0);
        let f_hi = src.next_frame(BitRate::from_mbps(30));
        // skip key frame influence by comparing delta frames
        let mut hi = 0u64;
        let mut lo = 0u64;
        for _ in 0..50 {
            hi += src.next_frame(BitRate::from_mbps(30)).size.as_u64();
        }
        for _ in 0..50 {
            lo += src.next_frame(BitRate::from_mbps(6)).size.as_u64();
        }
        assert!(hi > 3 * lo, "hi {hi} lo {lo}");
        assert!(f_hi.size.as_u64() > 0);
    }

    #[test]
    fn interval_matches_fps() {
        let src = FrameSource::new(FrameSourceConfig::default(), 1, 0);
        assert_eq!(src.interval(), SimDuration::from_nanos(16_666_666));
        assert_eq!(src.fps(), 60);
    }

    #[test]
    fn frames_never_smaller_than_floor() {
        let mut src = FrameSource::new(FrameSourceConfig::default(), 13, 0);
        for _ in 0..500 {
            let f = src.next_frame(BitRate::from_kbps(1));
            assert!(f.size.as_u64() >= 200);
        }
    }
}
