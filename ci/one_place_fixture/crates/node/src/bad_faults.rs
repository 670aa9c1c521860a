fn arm(el: &mut EventLoop, schedule: &FaultSchedule) {
    el.set_faults(NetFaults::new(schedule.link_faults(|r| r + 2)));
}
