#include "runner/describe.hpp"

#include <cstdarg>
#include <cstdio>

#include "stats/export.hpp"

namespace fourbit::runner {
namespace {

std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

}  // namespace

std::string describe(const ExperimentConfig& config) {
  std::string out;
  out += format("profile      : %s\n",
                profile_name(config.profile).data());
  out += format("testbed      : %zu nodes, root %u\n",
                config.testbed.topology.size(),
                config.testbed.topology.root.value());
  out += format("tx power     : %.1f dBm\n", config.tx_power.value());
  out += format("duration     : %.1f min\n",
                config.duration.seconds() / 60.0);
  out += format("traffic      : 1 pkt / %.1f s / node (+-%.0f%%), %zu B\n",
                config.traffic.period.seconds(),
                config.traffic.jitter * 100.0,
                config.traffic.payload_bytes);
  out += format("link table   : %zu entries\n", config.table_capacity);
  out += format("seed         : %llu\n",
                static_cast<unsigned long long>(config.seed));
  const auto& env = config.testbed.environment;
  out += format(
      "environment  : PL(d)=%.1f+%.0f*log10(d) dB, shadow %.1f dB, "
      "asym %.1f dB\n",
      env.propagation.reference_loss.value(), 10.0 * env.propagation.exponent,
      env.propagation.shadowing_sigma_db, env.propagation.asymmetry_sigma_db);
  if (env.burst_interference) {
    out += format(
        "interference : bursts %.0fs/%.0fs, %.0f%% loss, %.0f%% of nodes\n",
        env.bursts.mean_bad.seconds(), env.bursts.mean_good.seconds(),
        env.bursts.bad_loss_probability * 100.0,
        env.bursts.affected_fraction * 100.0);
  } else {
    out += "interference : none\n";
  }
  if (config.faults.enabled()) {
    out += format(
        "faults       : %zu crashes (down %.0fs), %zu link outages "
        "(%.0fs, %.0f%% loss)%s in [%.0fs, %.0fs)\n",
        config.faults.node_crashes,
        config.faults.crash_downtime.seconds(), config.faults.link_outages,
        config.faults.outage_duration.seconds(),
        config.faults.outage_loss * 100.0,
        config.faults.root_region_crash ? ", root-region crash" : "",
        config.faults.window_start.seconds(),
        config.faults.window_end.seconds());
  }
  return out;
}

std::string describe(const ExperimentResult& result) {
  std::string out;
  out += format("cost         : %.2f tx / delivered packet\n", result.cost);
  out += format("delivery     : %.2f%% (%llu of %llu)\n",
                result.delivery_ratio * 100.0,
                static_cast<unsigned long long>(result.delivered),
                static_cast<unsigned long long>(result.generated));
  out += format("mean depth   : %.2f hops (%zu/%zu routed at end)\n",
                result.mean_depth, result.final_tree.routed,
                result.final_tree.total);
  out += format("overhead     : %llu beacons, %llu duplicate rx\n",
                static_cast<unsigned long long>(result.beacon_tx),
                static_cast<unsigned long long>(result.duplicates));
  out += format("drops        : %llu retx-budget, %llu queue\n",
                static_cast<unsigned long long>(result.retx_drops),
                static_cast<unsigned long long>(result.queue_drops));
  out += format("churn        : %llu parent changes\n",
                static_cast<unsigned long long>(result.parent_changes));
  out += format("first route  : %.1f s mean boot-to-route\n",
                result.mean_time_to_first_route_s);
  if (result.node_crashes > 0 || result.link_outages > 0) {
    out += format("faults       : %llu crashes, %llu reboots, "
                  "%llu link outages\n",
                  static_cast<unsigned long long>(result.node_crashes),
                  static_cast<unsigned long long>(result.node_reboots),
                  static_cast<unsigned long long>(result.link_outages));
    out += format("recovery     : reroute %.1f s mean / %.1f s max "
                  "(%llu losses), %llu evictions, %llu pin refusals\n",
                  result.mean_time_to_reroute_s,
                  result.max_time_to_reroute_s,
                  static_cast<unsigned long long>(result.route_losses),
                  static_cast<unsigned long long>(result.parent_evictions),
                  static_cast<unsigned long long>(result.pin_refusals));
    if (result.mean_table_refill_s > 0.0) {
      out += format("table refill : %.1f s mean after reboot\n",
                    result.mean_table_refill_s);
    }
    out += format("outage dlv   : %.1f%% during (%llu pkts), "
                  "%.1f%% post (%llu pkts)\n",
                  result.delivery_during_outage * 100.0,
                  static_cast<unsigned long long>(
                      result.generated_during_outage),
                  result.delivery_post_outage * 100.0,
                  static_cast<unsigned long long>(
                      result.generated_post_outage));
  }
  if (result.projected_lifetime_days > 0.0) {
    out += format("energy       : worst node %.3f mAh, lifetime %.1f days\n",
                  result.worst_node_mah, result.projected_lifetime_days);
  }
  if (result.arena_bytes > 0 || result.eq_resizes > 0) {
    out += format("engine       : %.1f KiB arena, %llu queue resizes\n",
                  static_cast<double>(result.arena_bytes) / 1024.0,
                  static_cast<unsigned long long>(result.eq_resizes));
  }
  return out;
}

std::string describe(const TrialFailure& failure) {
  std::string out =
      format("trial %zu (seed %llu) failed [%s] on attempt %zu: %s",
             failure.trial_index,
             static_cast<unsigned long long>(failure.seed),
             std::string{failure_kind_name(failure.kind)}.c_str(),
             failure.attempt, failure.what.c_str());
  if (failure.term_signal != 0) {
    out += format(" (signal %d)", failure.term_signal);
  }
  if (!failure.flight.empty()) {
    out += format(" (flight recorder: %zu events, last at t=%.3fs)",
                  failure.flight.size(),
                  failure.flight.back().at.seconds());
  }
  out += "\n";
  return out;
}

std::string describe(const CampaignReport& report) {
  const std::size_t total = report.results.size();
  std::size_t completed = 0;
  for (const auto done : report.completed) completed += done;

  const bool eventful = !report.failures.empty() || report.retries > 0 ||
                        report.replayed > 0 || report.journal_torn ||
                        report.hard_crashes > 0 || report.worker_respawns > 0 ||
                        report.host_losses > 0 ||
                        report.lease_reassignments > 0 ||
                        report.journal_write_failures > 0;
  if (!eventful) return "";

  std::string out;
  out += format("trials       : %zu of %zu completed, %zu failed\n",
                completed, total, report.failures.size());
  out += format("attempts     : %llu (%llu retries, %llu replayed from "
                "journal%s)\n",
                static_cast<unsigned long long>(report.attempts),
                static_cast<unsigned long long>(report.retries),
                static_cast<unsigned long long>(report.replayed),
                report.journal_torn ? ", torn tail dropped" : "");
  if (report.hard_crashes > 0 || report.worker_respawns > 0) {
    out += format("workers      : %llu hard crashes, %llu respawns\n",
                  static_cast<unsigned long long>(report.hard_crashes),
                  static_cast<unsigned long long>(report.worker_respawns));
  }
  if (report.host_losses > 0 || report.lease_reassignments > 0) {
    out += format("hosts        : %llu sessions lost, %llu leases "
                  "reassigned\n",
                  static_cast<unsigned long long>(report.host_losses),
                  static_cast<unsigned long long>(
                      report.lease_reassignments));
    // Per-host ledger, eventful hosts only: a host that just worked
    // earns no line, so clean-run output is unchanged.
    for (const auto& h : report.host_health) {
      if (h.losses == 0 && h.fruitless == 0 && !h.retired) continue;
      out += format("  host %s: %llu completed, %llu sessions lost, "
                    "%llu fruitless%s\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.completed),
                    static_cast<unsigned long long>(h.losses),
                    static_cast<unsigned long long>(h.fruitless),
                    h.retired ? ", retired" : "");
    }
  }
  if (report.journal_write_failures > 0) {
    out += format("journal      : %llu write failures "
                  "(runner/journal_write_failures); campaign continued "
                  "unjournaled\n",
                  static_cast<unsigned long long>(
                      report.journal_write_failures));
  }
  if (!report.failures.empty()) {
    std::size_t by_kind[kFailureKindCount] = {};
    for (const auto& f : report.failures) {
      ++by_kind[static_cast<std::size_t>(f.kind)];
    }
    out += format("failures     : %zu assert, %zu exception, %zu timeout, "
                  "%zu invariant, %zu hard_crash\n",
                  by_kind[0], by_kind[1], by_kind[2], by_kind[3], by_kind[4]);
    for (const auto& f : report.failures) {
      out += "  " + describe(f);
    }
  }
  return out;
}

namespace {

/// Appends `,"name":{"n":...,"mean":...,...}` for one aggregate.
void append_aggregate(std::string& out, const char* name,
                      const stats::Aggregate& a) {
  out += format(",\"%s\":{\"n\":%zu,\"mean\":%.17g,\"stddev\":%.17g,"
                "\"ci95_half\":%.17g,\"min\":%.17g,\"median\":%.17g,"
                "\"max\":%.17g}",
                name, a.n, a.mean, a.stddev, a.ci95_half, a.quartiles.min,
                a.quartiles.median, a.quartiles.max);
}

}  // namespace

std::string describe_json(const ExperimentResult& result) {
  std::string out = "{\"schema\":\"";
  out += stats::kSummarySchema;
  out += "\",\"type\":\"result\"";
  out += format(",\"cost\":%.17g,\"delivery_ratio\":%.17g,"
                "\"mean_depth\":%.17g",
                result.cost, result.delivery_ratio, result.mean_depth);
  out += format(",\"generated\":%llu,\"delivered\":%llu,\"data_tx\":%llu,"
                "\"beacon_tx\":%llu,\"radio_frames\":%llu",
                static_cast<unsigned long long>(result.generated),
                static_cast<unsigned long long>(result.delivered),
                static_cast<unsigned long long>(result.data_tx),
                static_cast<unsigned long long>(result.beacon_tx),
                static_cast<unsigned long long>(result.radio_frames));
  out += format(",\"retx_drops\":%llu,\"queue_drops\":%llu,"
                "\"duplicates\":%llu,\"parent_changes\":%llu",
                static_cast<unsigned long long>(result.retx_drops),
                static_cast<unsigned long long>(result.queue_drops),
                static_cast<unsigned long long>(result.duplicates),
                static_cast<unsigned long long>(result.parent_changes));
  if (result.node_crashes > 0 || result.link_outages > 0) {
    out += format(",\"node_crashes\":%llu,\"node_reboots\":%llu,"
                  "\"link_outages\":%llu,\"route_losses\":%llu,"
                  "\"mean_time_to_reroute_s\":%.17g,"
                  "\"delivery_during_outage\":%.17g,"
                  "\"delivery_post_outage\":%.17g",
                  static_cast<unsigned long long>(result.node_crashes),
                  static_cast<unsigned long long>(result.node_reboots),
                  static_cast<unsigned long long>(result.link_outages),
                  static_cast<unsigned long long>(result.route_losses),
                  result.mean_time_to_reroute_s,
                  result.delivery_during_outage,
                  result.delivery_post_outage);
  }
  out += "}";
  return out;
}

std::string describe_json(const TrialFailure& failure) {
  std::string out = "{\"schema\":\"";
  out += stats::kSummarySchema;
  out += "\",\"type\":\"failure\"";
  out += format(",\"trial\":%zu,\"seed\":%llu,\"kind\":\"%s\","
                "\"attempt\":%zu,\"what\":\"%s\",\"flight_events\":%zu",
                failure.trial_index,
                static_cast<unsigned long long>(failure.seed),
                std::string{failure_kind_name(failure.kind)}.c_str(),
                failure.attempt,
                stats::json_escape(failure.what).c_str(),
                failure.flight.size());
  if (failure.term_signal != 0) {
    out += format(",\"term_signal\":%d", failure.term_signal);
  }
  out += "}";
  return out;
}

std::string describe_json(const CampaignSummary& summary) {
  std::string out = "{\"schema\":\"";
  out += stats::kSummarySchema;
  out += "\",\"type\":\"campaign\"";
  out += format(",\"trials\":%zu,\"completed\":%zu,\"attempts\":%llu,"
                "\"retries\":%llu,\"replayed\":%llu",
                summary.trials, summary.completed,
                static_cast<unsigned long long>(summary.attempts),
                static_cast<unsigned long long>(summary.retries),
                static_cast<unsigned long long>(summary.replayed));
  if (summary.worker_respawns > 0) {
    out += format(",\"worker_respawns\":%llu",
                  static_cast<unsigned long long>(summary.worker_respawns));
  }
  if (summary.host_losses > 0 || summary.lease_reassignments > 0) {
    out += format(",\"host_losses\":%llu,\"lease_reassignments\":%llu",
                  static_cast<unsigned long long>(summary.host_losses),
                  static_cast<unsigned long long>(
                      summary.lease_reassignments));
  }
  out += format(",\"failures\":{\"assert\":%zu,\"exception\":%zu,"
                "\"timeout\":%zu,\"invariant\":%zu,\"hard_crash\":%zu}",
                summary.failures_by_kind[0], summary.failures_by_kind[1],
                summary.failures_by_kind[2], summary.failures_by_kind[3],
                summary.failures_by_kind[4]);
  append_aggregate(out, "cost", summary.cost);
  append_aggregate(out, "delivery_ratio", summary.delivery_ratio);
  append_aggregate(out, "mean_depth", summary.mean_depth);
  append_aggregate(out, "parent_changes", summary.parent_changes);
  if (summary.delivery_during_outage.n > 0 ||
      summary.time_to_reroute_s.n > 0) {
    append_aggregate(out, "delivery_during_outage",
                     summary.delivery_during_outage);
    append_aggregate(out, "time_to_reroute_s", summary.time_to_reroute_s);
  }
  out += "}";
  return out;
}

std::string describe_json(const CampaignReport& report) {
  return describe_json(summarize(report));
}

}  // namespace fourbit::runner
