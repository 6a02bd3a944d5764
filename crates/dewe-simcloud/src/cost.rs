//! Cloud billing models.
//!
//! The paper's provisioning strategy (§V.B) is built around AWS's 2015
//! billing rule: *"users pay for EC2 instances by the hour, and any partial
//! hour usage will be charged as a full hour"* — hence the 55-minute
//! deadline target. A per-minute model (Google Compute Engine style) is
//! included for the dynamic-provisioning extension the paper sketches in
//! §V.A.3.

/// Billing granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BillingModel {
    /// Partial hours round up to whole hours (AWS, 2015).
    PerHour,
    /// Partial minutes round up to whole minutes (GCE style).
    PerMinute,
}

/// Computes rental cost for a homogeneous cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Billing granularity.
    pub billing: BillingModel,
    /// Per-node price in USD per hour.
    pub price_per_hour: f64,
}

impl CostModel {
    /// Hourly model at the given per-node price.
    pub fn hourly(price_per_hour: f64) -> Self {
        Self { billing: BillingModel::PerHour, price_per_hour }
    }

    /// Billed duration in hours for a run of `secs` seconds.
    pub fn billed_hours(&self, secs: f64) -> f64 {
        assert!(secs >= 0.0);
        match self.billing {
            BillingModel::PerHour => (secs / 3600.0).ceil().max(1.0),
            BillingModel::PerMinute => (secs / 60.0).ceil().max(1.0) / 60.0,
        }
    }

    /// Total cost in USD for `nodes` nodes running `secs` seconds.
    pub fn cost(&self, nodes: usize, secs: f64) -> f64 {
        self.billed_hours(secs) * self.price_per_hour * nodes as f64
    }

    /// Cost per workflow for an ensemble of `workflows` (paper Fig. 11c).
    pub fn price_per_workflow(&self, nodes: usize, secs: f64, workflows: usize) -> f64 {
        assert!(workflows > 0);
        self.cost(nodes, secs) / workflows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_hour_rounds_up() {
        let m = CostModel::hourly(1.68);
        assert_eq!(m.billed_hours(1.0), 1.0);
        assert_eq!(m.billed_hours(3600.0), 1.0);
        assert_eq!(m.billed_hours(3601.0), 2.0);
        assert_eq!(m.billed_hours(7199.0), 2.0);
    }

    #[test]
    fn minimum_one_hour() {
        let m = CostModel::hourly(2.0);
        assert_eq!(m.cost(5, 0.0), 10.0);
    }

    #[test]
    fn cluster_cost_scales_with_nodes() {
        // Table III: 40 x c3.8xlarge = 67.2 USD/hr.
        let m = CostModel::hourly(1.68);
        assert!((m.cost(40, 3300.0) - 67.2).abs() < 1e-9);
        // 25 x r3.8xlarge = 70.0 USD/hr.
        let m = CostModel::hourly(2.80);
        assert!((m.cost(25, 3300.0) - 70.0).abs() < 1e-9);
        // 23 x i2.8xlarge = 156.86 USD/hr (paper rounds to 156.7).
        let m = CostModel::hourly(6.82);
        assert!((m.cost(23, 3300.0) - 156.86).abs() < 0.5);
    }

    #[test]
    fn price_per_workflow_decreases_with_load_under_hourly() {
        // Same wall-clock hour, more workflows -> cheaper per workflow
        // (the paper's Fig. 11c argument).
        let m = CostModel::hourly(1.68);
        let p50 = m.price_per_workflow(40, 1000.0, 50);
        let p200 = m.price_per_workflow(40, 3300.0, 200);
        assert!(p200 < p50);
    }

    #[test]
    fn per_minute_model_tracks_duration() {
        let m = CostModel { billing: BillingModel::PerMinute, price_per_hour: 6.0 }; // 0.1 USD/min
        assert!((m.cost(1, 90.0) - 0.2).abs() < 1e-9); // 2 minutes
        assert!((m.cost(1, 3600.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn per_minute_cheaper_for_short_runs() {
        let hourly = CostModel::hourly(6.82);
        let minute = CostModel { billing: BillingModel::PerMinute, ..hourly };
        assert!(minute.cost(10, 600.0) < hourly.cost(10, 600.0));
    }
}
