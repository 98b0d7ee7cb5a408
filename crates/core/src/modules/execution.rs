//! Execution module: drives the environment's low-level physics through a
//! proper controller — or, when disabled (Fig. 3's ablation), forces the
//! LLM to micro-manage primitives at crippled competence and extra
//! inference cost (paper §IV-B: "vastly expanding the decision space and
//! slowing down the inference process").

use embodied_env::{Environment, ExecOutcome, LowLevel, Subgoal};
use embodied_llm::{InferenceEndpoint, InferenceOpts, LlmError, LlmRequest, LlmResponse, Purpose};

/// Extra LLM micro-control calls per subgoal when execution is disabled.
const MICRO_CALLS: usize = 2;

/// How the low-level layer is being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// A dedicated controller executes primitives (the normal case).
    Controller,
    /// The planning LLM emits raw primitives (execution module disabled).
    LlmMicro,
}

/// Result of executing one subgoal, including any LLM micro-control bills.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The environment-level outcome.
    pub outcome: ExecOutcome,
    /// LLM responses incurred by micro-control (empty in controller mode).
    pub micro_responses: Vec<LlmResponse>,
    /// The first micro-control failure, if any: the primitive was driven
    /// without that call's guidance (graceful degradation).
    pub failure: Option<LlmError>,
}

/// The execution module.
#[derive(Debug)]
pub struct ExecutionModule {
    low: LowLevel,
    mode: ExecMode,
}

impl ExecutionModule {
    /// A controller-backed execution module.
    pub fn controller(seed: u64) -> Self {
        Self::controller_configured(seed, 1.0, 0.97)
    }

    /// Full controller configuration: compute scale plus per-attempt
    /// actuation reliability (failure injection).
    pub fn controller_configured(seed: u64, compute_scale: f64, reliability: f64) -> Self {
        let mut low = LowLevel::controller_with_reliability(seed, reliability);
        low.compute_scale = compute_scale.max(0.0);
        ExecutionModule {
            low,
            mode: ExecMode::Controller,
        }
    }

    /// Selects the sampling-based trajectory planner (design ablation).
    pub fn with_trajectory_planner(mut self, planner: embodied_env::TrajectoryPlanner) -> Self {
        self.low.trajectory_planner = planner;
        self
    }

    /// Enables the AnyGrasp-style pick pipeline (DaDu-E).
    pub fn with_grasp_pipeline(mut self, enabled: bool) -> Self {
        self.low.grasp_pipeline = enabled;
        self
    }

    /// The execution-disabled variant: LLM micro-control with competence
    /// derived from the planner's capability.
    pub fn llm_micro(seed: u64, planner_capability: f64) -> Self {
        ExecutionModule {
            low: LowLevel::llm_micro(seed, planner_capability),
            mode: ExecMode::LlmMicro,
        }
    }

    /// Current drive mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Executes `subgoal` for `agent` against the environment.
    ///
    /// In [`ExecMode::LlmMicro`], each subgoal additionally costs
    /// micro-control inference runs on `planner_engine` (any
    /// [`InferenceEndpoint`] — a raw engine or a resilient wrapper), billed
    /// to the caller via [`ExecutionReport::micro_responses`]. A micro call
    /// that fails — a fault that survives the endpoint's own retries, a
    /// shed, a missed deadline — degrades gracefully: the primitive is
    /// driven without that call's guidance and the report carries the
    /// [`ExecutionReport::failure`].
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError::EmptyPrompt`] (a caller bug).
    pub fn execute<E: InferenceEndpoint>(
        &mut self,
        env: &mut dyn Environment,
        agent: usize,
        subgoal: &Subgoal,
        planner_engine: &mut E,
        difficulty: f64,
        opts: InferenceOpts,
    ) -> Result<ExecutionReport, LlmError> {
        let mut micro_responses = Vec::new();
        let mut failure = None;
        if self.mode == ExecMode::LlmMicro {
            for i in 0..MICRO_CALLS {
                let prompt = format!(
                    "[system]\nYou must now output raw low-level motor \
                     primitives (joint targets, base velocities) to carry \
                     out: {subgoal}. Micro-step {i}: enumerate the next \
                     primitive and its parameters given the kinematic state."
                );
                match planner_engine.infer(
                    LlmRequest::new(Purpose::ActionSelection, &prompt, 80)
                        .with_difficulty((difficulty + 0.3).min(1.0))
                        .with_opts(opts),
                ) {
                    Ok(resp) => micro_responses.push(resp),
                    Err(LlmError::EmptyPrompt) => return Err(LlmError::EmptyPrompt),
                    Err(err) => {
                        failure.get_or_insert(err);
                    }
                }
            }
        }
        let outcome = env.execute(agent, subgoal, &mut self.low);
        Ok(ExecutionReport {
            outcome,
            micro_responses,
            failure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_env::{TaskDifficulty, TransportEnv};
    use embodied_llm::{LlmEngine, ModelProfile};

    fn setup() -> (TransportEnv, LlmEngine) {
        (
            TransportEnv::new(TaskDifficulty::Easy, 1, 0),
            LlmEngine::new(ModelProfile::gpt4_api(), 0),
        )
    }

    #[test]
    fn controller_mode_makes_no_llm_calls() {
        let (mut env, mut engine) = setup();
        let mut exec = ExecutionModule::controller(1);
        let sg = env.oracle_subgoals(0)[0].clone();
        let report = exec
            .execute(&mut env, 0, &sg, &mut engine, 0.3, InferenceOpts::default())
            .unwrap();
        assert!(report.micro_responses.is_empty());
        assert_eq!(engine.usage().calls, 0);
        assert!(report.outcome.total_time() > embodied_profiler::SimDuration::ZERO);
    }

    #[test]
    fn llm_micro_bills_inference_and_degrades() {
        let (mut env, mut engine) = setup();
        let mut exec = ExecutionModule::llm_micro(1, 0.9);
        let sg = env.oracle_subgoals(0)[0].clone();
        let report = exec
            .execute(&mut env, 0, &sg, &mut engine, 0.3, InferenceOpts::default())
            .unwrap();
        assert_eq!(report.micro_responses.len(), MICRO_CALLS);
        assert_eq!(engine.usage().calls, MICRO_CALLS as u64);
        assert_eq!(exec.mode(), ExecMode::LlmMicro);
    }

    #[test]
    fn llm_micro_rarely_completes_long_navigation() {
        // Over many fresh environments, micro-controlled GoTo across rooms
        // should complete far less often than the controller.
        let mut micro_ok = 0;
        let mut ctrl_ok = 0;
        for seed in 0..30 {
            let mut env = TransportEnv::new(TaskDifficulty::Easy, 1, seed);
            let mut engine = LlmEngine::new(ModelProfile::gpt4_api(), seed);
            let sg = env.oracle_subgoals(0)[0].clone();
            let mut exec = ExecutionModule::llm_micro(seed, 0.9);
            if exec
                .execute(&mut env, 0, &sg, &mut engine, 0.3, InferenceOpts::default())
                .unwrap()
                .outcome
                .completed
            {
                micro_ok += 1;
            }
            let mut env = TransportEnv::new(TaskDifficulty::Easy, 1, seed);
            let mut exec = ExecutionModule::controller(seed);
            if exec
                .execute(&mut env, 0, &sg, &mut engine, 0.3, InferenceOpts::default())
                .unwrap()
                .outcome
                .completed
            {
                ctrl_ok += 1;
            }
        }
        assert!(
            ctrl_ok > micro_ok + 10,
            "controller {ctrl_ok}/30 vs micro {micro_ok}/30"
        );
    }
}
